// service_mixed: the query service end to end. An in-process
// server::Server on a Unix socket serves one FrozenTree pair generated
// here, on a 2-worker pool. Load comes in two phases from this one
// thread:
//  * open loop: a fixed rate of 90% window SELECTs and 10% JOINs
//    (tree strategies, overlaps) over two connections, each request timed
//    from its intended send time, so a stall also charges the requests
//    queued behind it;
//  * closed loop: one ServiceClient keeping a fixed window of pipelined
//    requests of the same mix in flight, which measures capacity.
// Every RESULT reply is checked against the oracle, and the server's
// STATS must account for exactly the results the client counted.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/join.h"
#include "core/spatial_join.h"
#include "core/theta_ops.h"
#include "exec/frozen_tree.h"
#include "exec/partitioned_join.h"
#include "exec/thread_pool.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload/rect_generator.h"
#include "workloads.h"

namespace perfbench {

using namespace spatialjoin;
using server::MessageType;
using server::Reply;

namespace {

constexpr int kTuples = 5000;  // per side
constexpr double kMinExtent = 2.0;
constexpr double kMaxExtent = 30.0;
constexpr int kWindows = 1000;
constexpr double kMinWindow = 10.0;
constexpr double kMaxWindow = 60.0;
constexpr int kWorkers = 2;
// Far above anything the two phases keep in flight, so no request is
// refused with RESOURCE_EXHAUSTED (the default bound is the worker count).
constexpr int kMaxInflight = 256;
constexpr double kOpenLoopRate = 250.0;  // requests per second
constexpr int kMixPeriod = 10;           // every 10th request is a JOIN
constexpr int kClosedWindow = 8;
// Shares of --seconds given to the open loop, the closed loop and the
// in-process PBSM phase.
constexpr double kOpenShare = 0.65;
constexpr double kClosedShare = 0.2;
constexpr double kPbsmShare = 0.15;
constexpr size_t kCapacitySpan = 100;  // about a quarter second

bool IsJoin(int64_t k) { return k % kMixPeriod == kMixPeriod - 1; }

server::SelectRequest SelectFor(const Rectangle& window) {
  server::SelectRequest request;
  request.dataset_id = 0;
  request.strategy = SelectStrategy::kTree;
  request.op_code = static_cast<uint8_t>(server::WireOp::kOverlaps);
  request.selector = window;
  return request;
}

server::JoinRequest JoinFor() {
  server::JoinRequest request;
  request.dataset_id = 0;
  request.strategy = JoinStrategy::kTreeJoin;
  request.op_code = static_cast<uint8_t>(server::WireOp::kOverlaps);
  return request;
}

// Extracts the number after the first `"key":` that follows `"section"`
// in a STATS snapshot; -1 when absent.
double StatsField(const std::string& json, const std::string& section,
                  const std::string& key) {
  size_t at = json.find("\"" + section + "\"");
  if (at == std::string::npos) return -1;
  at = json.find("\"" + key + "\"", at);
  if (at == std::string::npos) return -1;
  at = json.find(':', at);
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + 1, nullptr);
}

int ConnectRaw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

// Checks one reply to request number k against the oracle (selects) or
// the verified reference join (joins, which the server returns in a
// fixed order).
struct ReplyChecker {
  const std::vector<std::vector<int64_t>>* answers;
  const std::vector<std::pair<TupleId, TupleId>>* reference;
  Report* report;
  int64_t results = 0;

  void Check(int64_t k, const Result<Reply>& reply) {
    if (!reply.ok() || reply.value().type != MessageType::kResult) {
      ++report->failed;
      report->Fail("request " + std::to_string(k) + " got no RESULT: " +
                   (reply.ok() ? reply.value().error_message
                               : reply.status().ToString()));
      return;
    }
    ++results;
    const std::vector<std::pair<TupleId, TupleId>>& matches =
        reply.value().result.matches;
    if (IsJoin(k)) {
      report->Check(matches == *reference,
                    "served JOIN " + std::to_string(k) + " differs");
      return;
    }
    std::vector<int64_t> tids;
    tids.reserve(matches.size());
    for (const auto& m : matches) tids.push_back(m.second);
    std::sort(tids.begin(), tids.end());
    report->Check(tids == (*answers)[static_cast<size_t>(k % kWindows)],
                  "served SELECT " + std::to_string(k) + " differs");
  }
};

}  // namespace

void RunServiceMixed(const Options& options, Tracer* tracer,
                     Report* report) {
  const Rectangle world(0, 0, 1000, 1000);

  // ---- Set-up: generate, load, snapshot, start the server. ---------------
  int64_t t = NowNs();
  std::vector<Rectangle> r_rects, s_rects, windows;
  {
    Span span(tracer, "setup.generate");
    RectGenerator gen_r(world, StreamSeed(options.seed, 1));
    RectGenerator gen_s(world, StreamSeed(options.seed, 2));
    RectGenerator gen_w(world, StreamSeed(options.seed, 3));
    r_rects = gen_r.Rects(kTuples, kMinExtent, kMaxExtent);
    s_rects = gen_s.Rects(kTuples, kMinExtent, kMaxExtent);
    windows = gen_w.Rects(kWindows, kMinWindow, kMaxWindow);
  }
  report->Set("setup.generate_s", (NowNs() - t) / 1e9);

  t = NowNs();
  StoredPair stored;
  {
    Span span(tracer, "setup.load");
    StorageConfig config;
    config.page_size = 4000;
    config.pool_frames = 2048;
    config.max_entries = 8;
    stored = LoadPair(r_rects, s_rects, config, report);
  }
  report->Set("setup.load_s", (NowNs() - t) / 1e9);
  report->Set("storage.pages_allocated",
              static_cast<double>(stored.disk->stats().pages_allocated));

  t = NowNs();
  std::vector<exec::FrozenTree> frozen;
  {
    Span span(tracer, "setup.materialize");
    frozen.push_back(exec::FrozenTree::Materialize(*stored.r_tree));
    frozen.push_back(exec::FrozenTree::Materialize(*stored.s_tree));
  }
  report->Set("setup.materialize_s", (NowNs() - t) / 1e9);

  t = NowNs();
  std::vector<exec::JoinItem> r_items, s_items;
  {
    Span span(tracer, "setup.collect_items");
    r_items = exec::CollectJoinItems(*stored.r, 1);
    s_items = exec::CollectJoinItems(*stored.s, 1);
  }
  report->Set("setup.collect_items_s", (NowNs() - t) / 1e9);

  t = NowNs();
  exec::ThreadPool pool(kWorkers);
  server::Server::Options server_options;
  server_options.socket_path =
      options.out_dir + "/sj-" + std::to_string(::getpid()) + ".sock";
  server_options.max_inflight = kMaxInflight;
  server::Server server(&pool, server_options);
  {
    Span span(tracer, "setup.server_start");
    server.RegisterDataset(std::move(frozen[0]), std::move(frozen[1]));
    const Status started = server.Start();
    if (!report->Check(started.ok(), "server start: " + started.ToString())) {
      return;
    }
  }
  report->Set("setup.server_start_s", (NowNs() - t) / 1e9);
  report->Set("setup_s", (NowNs() - ProcessStartNs()) / 1e9);

  // ---- Oracle and the reference join (not part of set-up). ---------------
  const std::vector<Box> r_boxes = ToBoxes(r_rects);
  const std::vector<Box> s_boxes = ToBoxes(s_rects);
  const std::vector<Pair> expected = OverlapPairs(r_boxes, s_boxes);
  std::vector<std::vector<int64_t>> answers;
  for (const Rectangle& w : windows) {
    answers.push_back(WindowAnswer(s_boxes, ToBox(w)));
  }
  const std::string& socket_path = server.socket_path();
  Result<std::unique_ptr<server::ServiceClient>> connected =
      server::ServiceClient::Connect(socket_path);
  if (!report->Check(connected.ok(), "connect: " +
                                         connected.status().ToString())) {
    return;
  }
  server::ServiceClient& client = *connected.value();
  std::string why;
  JoinResult reference;
  {
    Result<Reply> reply = client.Join(JoinFor());
    ++report->attempted;
    if (!reply.ok() || reply.value().type != MessageType::kResult) {
      ++report->failed;
      report->Fail("reference JOIN failed");
      return;
    }
    reference = reply.value().result;
    std::vector<Pair> got(reference.matches.begin(), reference.matches.end());
    report->Check(SameAsOracle(&got, expected, &why), "served JOIN: " + why);
    report->Check(reference.matches.size() < server::kMaxResultPairs,
                  "JOIN result exceeds the frame cap");
  }
  // The reference JOIN is the first RESULT the server counted.
  ReplyChecker checker{&answers, &reference.matches, report, 1};

  // ---- Open loop. ----------------------------------------------------------
  // SELECTs and JOINs travel on connections of their own, so a select's
  // reply never queues behind a join's reply of a few hundred KiB.
  const int64_t open_requests =
      std::max<int64_t>(1, static_cast<int64_t>(options.seconds * kOpenShare *
                                                kOpenLoopRate / kMixPeriod)) *
      kMixPeriod;
  std::vector<double> select_us, join_ms, lag_us;
  // Fastest served latency of each window (windows never sent stay out).
  std::vector<double> select_best_us(windows.size(), 1e18);
  {
    const int fds[2] = {ConnectRaw(socket_path), ConnectRaw(socket_path)};
    const auto fd_for = [&](int64_t k) { return fds[IsJoin(k) ? 1 : 0]; };
    if (!report->Check(fds[0] >= 0 && fds[1] >= 0, "open-loop connect")) {
      return;
    }
    std::vector<int64_t> due(static_cast<size_t>(open_requests));
    const int64_t start = NowNs() + 1000000;
    for (int64_t k = 0; k < open_requests; ++k) {
      due[static_cast<size_t>(k)] =
          start + static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                       kOpenLoopRate);
    }
    const int64_t give_up = due.back() + 60'000'000'000;
    // The generator spins instead of sleeping in ppoll: waking a sleeping
    // client thread costs a VM more than a served SELECT does, and how
    // much varies from run to run.
    const timespec kNoWait{0, 0};
    server::FrameDecoder decoders[2];
    std::vector<char> buffer(1 << 20);
    int64_t next = 0, completed = 0;
    bool broken = false;
    while (completed < open_requests && !broken) {
      const int64_t now = NowNs();
      if (now > give_up) {
        report->Fail("open loop: replies stopped arriving");
        break;
      }
      if (next < open_requests && due[static_cast<size_t>(next)] <= now) {
        Span span(tracer, "server.send");
        lag_us.push_back((now - due[static_cast<size_t>(next)]) / 1e3);
        const uint64_t id = static_cast<uint64_t>(next) + 1;
        const std::string frame =
            IsJoin(next) ? server::EncodeJoinRequest(id, JoinFor())
                         : server::EncodeSelectRequest(
                               id, SelectFor(windows[static_cast<size_t>(
                                       next % kWindows)]));
        ++report->attempted;
        if (!report->Check(WriteAll(fd_for(next), frame), "open-loop send")) {
          break;
        }
        ++next;
        continue;
      }
      pollfd pfds[2] = {{fds[0], POLLIN, 0}, {fds[1], POLLIN, 0}};
      if (::ppoll(pfds, 2, &kNoWait, nullptr) <= 0) continue;
      for (int c = 0; c < 2 && !broken; ++c) {
        if (pfds[c].revents == 0) continue;
        Span span(tracer, "server.receive");
        const ssize_t n = ::read(fds[c], buffer.data(), buffer.size());
        if (n <= 0 || !decoders[c]
                           .Feed(std::string_view(buffer.data(),
                                                  static_cast<size_t>(n)))
                           .ok()) {
          report->Fail("open loop: connection lost or reply stream broken");
          broken = true;
          break;
        }
        server::Frame frame;
        while (decoders[c].Next(&frame)) {
          const int64_t arrived = NowNs();
          const int64_t k = static_cast<int64_t>(frame.request_id) - 1;
          if (k < 0 || k >= next || (IsJoin(k) ? 1 : 0) != c) {
            report->Fail("open loop: reply to unknown request");
            continue;
          }
          const double latency_ns =
              static_cast<double>(arrived - due[static_cast<size_t>(k)]);
          checker.Check(k, server::DecodeReply(
                               static_cast<MessageType>(frame.type),
                               frame.request_id, frame.payload));
          if (IsJoin(k)) {
            join_ms.push_back(latency_ns / 1e6);
          } else {
            select_us.push_back(latency_ns / 1e3);
            double& best = select_best_us[static_cast<size_t>(k % kWindows)];
            best = std::min(best, latency_ns / 1e3);
          }
          ++completed;
        }
      }
    }
    ::close(fds[0]);
    ::close(fds[1]);
  }
  if (select_us.empty() || join_ms.empty()) {
    report->Fail("open loop completed no SELECT or no JOIN");
    return;
  }
  Result<std::string> open_stats = client.Stats();
  report->Check(open_stats.ok(), "STATS after the open loop");

  // ---- Closed loop. --------------------------------------------------------
  double capacity_qps = 0;
  double tasks_executed = 0, tasks_stolen = 0;  // per served query
  {
    Span span(tracer, "server.closed_loop");
    const exec::ThreadPool::Stats before = pool.stats();
    std::deque<std::pair<uint64_t, int64_t>> pending;  // (id, k)
    int64_t k = 0, completed = 0;
    bool ok = true;
    auto send = [&]() {
      Result<uint64_t> id =
          IsJoin(k) ? client.SendJoin(JoinFor())
                    : client.SendSelect(SelectFor(
                          windows[static_cast<size_t>(k % kWindows)]));
      ++report->attempted;
      ok = report->Check(id.ok(), "closed-loop send");
      if (ok) pending.emplace_back(id.value(), k++);
    };
    const int64_t start = NowNs();
    const int64_t stop =
        start + static_cast<int64_t>(options.seconds * kClosedShare * 1e9);
    std::vector<int64_t> done_ns;  // completion times
    while (ok && static_cast<int>(pending.size()) < kClosedWindow) send();
    while (ok && !pending.empty()) {
      const auto [id, kk] = pending.front();
      pending.pop_front();
      checker.Check(kk, client.WaitReply(id));
      ++completed;
      done_ns.push_back(NowNs());
      // Stop sending only at the end of a whole round of the mix.
      if (NowNs() < stop || k % kMixPeriod != 0) send();
    }
    // The best rate over kCapacitySpan consecutive completions: what
    // the server sustains while the shared CPU runs at full speed.
    capacity_qps = static_cast<double>(completed) / ((NowNs() - start) / 1e9);
    for (size_t i = kCapacitySpan; i < done_ns.size(); ++i) {
      capacity_qps = std::max(
          capacity_qps, kCapacitySpan * 1e9 / static_cast<double>(
                                                  done_ns[i] -
                                                  done_ns[i - kCapacitySpan]));
    }
    const exec::ThreadPool::Stats after = pool.stats();
    const double queries = static_cast<double>(std::max<int64_t>(completed, 1));
    tasks_executed = (after.tasks_executed - before.tasks_executed) / queries;
    tasks_stolen = (after.tasks_stolen - before.tasks_stolen) / queries;
  }

  // The server must have counted exactly the results the client saw.
  Result<std::string> final_stats = client.Stats();
  if (report->Check(final_stats.ok(), "final STATS")) {
    const double served_ok = StatsField(final_stats.value(), "queries", "ok");
    report->Check(served_ok == static_cast<double>(checker.results),
                  "STATS queries.ok " + std::to_string(served_ok) +
                      " != client RESULT count " +
                      std::to_string(checker.results));
    report->Check(
        StatsField(final_stats.value(), "scheduler", "rejected") == 0,
        "server rejected requests");
  }

  // ---- PBSM over the same data, in-process on the server's pool. ---------
  std::vector<double> pbsm_ms;
  OverlapsOp op;
  RunPhase(options.seconds * kPbsmShare, false, [&](bool) {
    Span span(tracer, "exec.PartitionedJoin");
    const int64_t t0 = NowNs();
    JoinResult partitioned = exec::PartitionedJoin(r_items, s_items, op, &pool);
    pbsm_ms.push_back((NowNs() - t0) / 1e6);
    ++report->attempted;
    std::vector<Pair> got(partitioned.matches.begin(),
                          partitioned.matches.end());
    report->Check(SameAsOracle(&got, expected, &why), "PBSM: " + why);
  });

  // ---- Metrics. ------------------------------------------------------------
  select_best_us.erase(
      std::remove(select_best_us.begin(), select_best_us.end(), 1e18),
      select_best_us.end());
  const double select_p50 = Quantile(select_best_us, 0.50);
  report->Set("join_ms", Min(join_ms));
  report->Set("pbsm_join_ms", Min(pbsm_ms));
  report->Set("select_p50_us", select_p50);
  report->Set("select_p99_us", Quantile(select_best_us, 0.99));
  report->Set("service.open_select_p50_us", Quantile(select_us, 0.50));
  report->Set("service.open_select_p99_us", Quantile(select_us, 0.99));
  report->Set("service.capacity_qps", capacity_qps);
  report->Set("peak_rss_mib", PeakRssMiB());

  report->Set("join.samples", static_cast<double>(join_ms.size()));
  report->Set("select.samples", static_cast<double>(select_us.size()));
  report->Set("join.matches", static_cast<double>(reference.matches.size()));
  report->Set("join.theta_upper_tests",
              static_cast<double>(reference.theta_upper_tests));
  report->Set("join.theta_tests", static_cast<double>(reference.theta_tests));
  report->Set("join.qual_pairs",
              static_cast<double>(reference.qual_pairs_examined));
  report->Set("join.nodes_accessed",
              static_cast<double>(reference.nodes_accessed));
  report->Set("join.filter_pass_ratio",
              static_cast<double>(reference.theta_tests) /
                  static_cast<double>(reference.theta_upper_tests));
  report->Set("service.join_p50_ms", Quantile(join_ms, 0.50));
  report->Set("service.join_p95_ms", Quantile(join_ms, 0.95));
  report->Set("service.send_lag_p99_us", Quantile(lag_us, 0.99));
  report->Set("pool.tasks_executed", tasks_executed);
  report->Set("pool.tasks_stolen", tasks_stolen);
  if (open_stats.ok()) {
    report->Set("server.queue_wait_mean_us",
                StatsField(open_stats.value(), "queue_wait", "mean_ns") / 1e3);
    report->Set("server.peak_inflight",
                StatsField(open_stats.value(), "scheduler", "peak_inflight"));
  }
  if (!options.trace) return;

  // ---- Traced run only: the same queries in-process, off the load. -------
  // A second snapshot of the trees (the server owns the first).
  const exec::FrozenTree r_engine =
      exec::FrozenTree::Materialize(*stored.r_tree);
  const exec::FrozenTree s_engine =
      exec::FrozenTree::Materialize(*stored.s_tree);
  SpatialJoinContext ctx;
  ctx.r_tree = &r_engine;
  ctx.s_tree = &s_engine;
  std::vector<double> engine_select_us;
  for (size_t w = 0; w < windows.size(); ++w) {
    Span span(tracer, "core.ExecuteSelect");
    const Value selector(windows[w]);
    const int64_t t0 = NowNs();
    JoinResult sel =
        ExecuteSelect(SelectStrategy::kTree, ctx, selector, kInvalidTupleId, op);
    engine_select_us.push_back((NowNs() - t0) / 1e3);
    ++report->attempted;
    std::vector<int64_t> tids;
    for (const auto& m : sel.matches) tids.push_back(m.second);
    std::sort(tids.begin(), tids.end());
    report->Check(tids == answers[w], "ExecuteSelect window " +
                                          std::to_string(w));
  }
  // Engine joins alternate traced and untraced for trace.overhead_pct.
  std::vector<double> engine_join_ms, engine_join_traced_ms;
  for (int i = 0; i < 10; ++i) {
    const bool traced = i % 2 == 0;
    Span span(traced ? tracer : nullptr, "core.ExecuteJoin");
    const int64_t t0 = NowNs();
    JoinResult joined = ExecuteJoin(JoinStrategy::kTreeJoin, ctx, op);
    (traced ? engine_join_traced_ms : engine_join_ms)
        .push_back((NowNs() - t0) / 1e6);
    ++report->attempted;
    report->Check(joined.matches == reference.matches,
                  "ExecuteJoin differs from the served JOIN");
  }
  const double engine_select_p50 = Quantile(engine_select_us, 0.50);
  report->Set("service.engine_select_p50_us", engine_select_p50);
  report->Set("service.engine_join_ms", Median(engine_join_ms));
  report->Set("service.select_overhead_us", select_p50 - engine_select_p50);
  report->Set("trace.overhead_pct",
              (Median(engine_join_traced_ms) / Median(engine_join_ms) - 1.0) *
                  100.0);

  // Protocol cost of one captured JOIN result.
  std::vector<double> encode_us, decode_us;
  for (int i = 0; i < 20; ++i) {
    int64_t t0 = NowNs();
    std::string frame;
    {
      Span span(tracer, "protocol.EncodeResultReply");
      frame = server::EncodeResultReply(1, reference);
    }
    encode_us.push_back((NowNs() - t0) / 1e3);
    const std::string_view payload =
        std::string_view(frame).substr(server::kFrameHeaderBytes);
    t0 = NowNs();
    Result<Reply> decoded = [&] {
      Span span(tracer, "protocol.DecodeReply");
      return server::DecodeReply(MessageType::kResult, 1, payload);
    }();
    decode_us.push_back((NowNs() - t0) / 1e3);
    report->Check(decoded.ok() &&
                      decoded.value().result.matches == reference.matches,
                  "DecodeReply(EncodeResultReply(x)) != x");
  }
  report->Set("protocol.encode_join_reply_us", Median(encode_us));
  report->Set("protocol.decode_join_reply_us", Median(decode_us));
}

}  // namespace perfbench

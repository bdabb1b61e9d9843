// inmem_uniform: the CPU-bound hot path. Two UNIFORM relations of 8,000
// rectangles are loaded, their R-trees snapshotted into FrozenTrees and
// JoinItem vectors, and timed rounds follow, each of one sequential
// Algorithm JOIN (overlaps), one PBSM partitioned join and one pass of one
// window SELECT per query window. No storage layer is in the timed loop.
// Traced runs also time PBSM on an exec pool of min(4, nproc) workers.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/join.h"
#include "core/select.h"
#include "core/theta_ops.h"
#include "exec/frozen_tree.h"
#include "exec/partitioned_join.h"
#include "exec/thread_pool.h"
#include "workload/rect_generator.h"
#include "workloads.h"

namespace perfbench {

using namespace spatialjoin;

namespace {

// 8,000 tuples in a 1000 x 1000 world have about the density of 30,000
// in 2000 x 2000, with joins of ~40 ms: the shared host slows every core
// together for tens of seconds at a time, and a run's fastest join only
// reads the cost of the work when the run holds hundreds of joins rather
// than tens.
constexpr int kTuples = 8000;
constexpr double kMinExtent = 5.0;
constexpr double kMaxExtent = 40.0;
constexpr int kWindows = 1000;
constexpr double kMinWindow = 20.0;
constexpr double kMaxWindow = 100.0;

std::vector<Pair> ToPairs(const JoinResult& result) {
  return std::vector<Pair>(result.matches.begin(), result.matches.end());
}

}  // namespace

void RunInmemUniform(const Options& options, Tracer* tracer,
                     Report* report) {
  const Rectangle world(0, 0, 1000, 1000);

  // ---- Set-up: generate, load, snapshot. ---------------------------------
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
    config.pool_frames = 1024;
    config.layout = RelationLayout::kClustered;
    config.pad_tuples_to = 300;
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
  const exec::FrozenTree& r_frozen = frozen[0];
  const exec::FrozenTree& s_frozen = frozen[1];
  report->Set("setup.materialize_s", (NowNs() - t) / 1e9);

  t = NowNs();
  std::vector<exec::JoinItem> r_items, s_items;
  {
    Span span(tracer, "setup.collect_items");
    r_items = exec::CollectJoinItems(*stored.r, 1);
    s_items = exec::CollectJoinItems(*stored.s, 1);
  }
  report->Set("setup.collect_items_s", (NowNs() - t) / 1e9);

  // The timed PBSM runs inline on one worker, like the tree join it is
  // compared with. On the shared 4-vCPU host a PBSM on four workers took
  // its one-worker time for whole runs (15 ms against 5.5 ms in others),
  // as if the host lent the VM fewer CPUs than nproc says, and two
  // workers gained nothing over one for the length of a ten-run set.
  exec::ThreadPool pool(1);
  report->Set("setup_s", (NowNs() - ProcessStartNs()) / 1e9);

  // ---- Oracle (not part of set-up). --------------------------------------
  const std::vector<Box> r_boxes = ToBoxes(r_rects);
  const std::vector<Box> s_boxes = ToBoxes(s_rects);
  const std::vector<Pair> expected = OverlapPairs(r_boxes, s_boxes);
  std::vector<std::vector<int64_t>> answers;
  std::vector<Value> selectors;
  for (const Rectangle& w : windows) {
    answers.push_back(WindowAnswer(s_boxes, ToBox(w)));
    selectors.emplace_back(w);
  }
  // Only the traced run measures PBSM on the exec pool's workers, for
  // pbsm.pool_ms, pbsm.speedup and the pool's task counts.
  std::unique_ptr<exec::ThreadPool> wide;
  if (options.trace) {
    wide = std::make_unique<exec::ThreadPool>(std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, 4));
  }

  // ---- Measured rounds. ---------------------------------------------------
  // Each round runs one join, one PBSM run and one pass over the windows,
  // so every operation samples the whole run and its fastest repetition
  // is not lost to one slow stretch of the shared CPU.
  OverlapsOp op;
  std::vector<double> join_ms, join_traced_ms, pbsm_ms, pbsm_pool_ms;
  // Fastest time of each window's SELECT over all passes.
  std::vector<double> select_best_us(selectors.size(), 1e18);
  int64_t select_samples = 0;
  JoinResult join_counts, pbsm_counts;
  int64_t join_allocs = 0, pbsm_allocs = 0;
  int64_t sel_upper = 0, sel_nodes = 0, sel_allocs = 0, sel_traced = 0;
  int64_t tasks_executed = 0, tasks_stolen = 0, pbsm_runs = 0;
  std::string why;

  RunPhase(options.seconds, options.trace, [&](bool traced) {
    Tracer* active = traced ? tracer : nullptr;

    // Sequential Algorithm JOIN over the snapshots.
    JoinResult joined;
    {
      Span span(active, "core.TreeJoin");
      SetAllocCounting(traced);
      const int64_t a0 = AllocCount();
      const int64_t t0 = NowNs();
      joined = TreeJoin(r_frozen, s_frozen, op);
      const double ms = (NowNs() - t0) / 1e6;
      SetAllocCounting(false);
      if (traced) {
        join_allocs = AllocCount() - a0;
        join_traced_ms.push_back(ms);
      } else {
        join_ms.push_back(ms);
      }
    }
    ++report->attempted;
    std::vector<Pair> got = ToPairs(joined);
    report->Check(SameAsOracle(&got, expected, &why), "TreeJoin: " + why);
    join_counts = std::move(joined);

    // PBSM inline; a traced round also times it on the wide pool.
    JoinResult partitioned;
    {
      Span span(active, "exec.PartitionedJoin");
      SetAllocCounting(traced);
      const int64_t a0 = AllocCount();
      const int64_t t0 = NowNs();
      partitioned = exec::PartitionedJoin(r_items, s_items, op, &pool);
      const double ms = (NowNs() - t0) / 1e6;
      SetAllocCounting(false);
      if (traced) {
        pbsm_allocs = AllocCount() - a0;
      } else {
        pbsm_ms.push_back(ms);
      }
    }
    ++report->attempted;
    got = ToPairs(partitioned);
    report->Check(SameAsOracle(&got, expected, &why), "PBSM: " + why);
    pbsm_counts = std::move(partitioned);

    if (wide && traced) {
      Span span(tracer, "exec.PartitionedJoin.pool");
      const exec::ThreadPool::Stats before = wide->stats();
      const int64_t t0 = NowNs();
      JoinResult pooled =
          exec::PartitionedJoin(r_items, s_items, op, wide.get());
      pbsm_pool_ms.push_back((NowNs() - t0) / 1e6);
      const exec::ThreadPool::Stats after = wide->stats();
      tasks_executed += after.tasks_executed - before.tasks_executed;
      tasks_stolen += after.tasks_stolen - before.tasks_stolen;
      ++pbsm_runs;
      ++report->attempted;
      got = ToPairs(pooled);
      report->Check(SameAsOracle(&got, expected, &why),
                    "PBSM (pool): " + why);
    }

    // One pass of one SELECT per window.
    for (size_t w = 0; w < selectors.size(); ++w) {
      Span span(active, "core.SpatialSelect");
      SetAllocCounting(traced);
      const int64_t a0 = AllocCount();
      const int64_t t0 = NowNs();
      SelectResult sel = SpatialSelect(selectors[w], s_frozen, op);
      const double us = (NowNs() - t0) / 1e3;
      SetAllocCounting(false);
      if (traced) {
        sel_allocs += AllocCount() - a0;
        sel_upper += sel.theta_upper_tests;
        sel_nodes += sel.nodes_accessed;
        ++sel_traced;
      } else {
        select_best_us[w] = std::min(select_best_us[w], us);
        ++select_samples;
      }
      ++report->attempted;
      std::vector<int64_t> tids(sel.matching_tuples.begin(),
                                sel.matching_tuples.end());
      std::sort(tids.begin(), tids.end());
      report->Check(tids == answers[w],
                    "SpatialSelect window " + std::to_string(w));
    }
  });

  // Overlaps is symmetric: JOIN(S, R) must be the transpose of JOIN(R, S).
  {
    JoinResult transposed = TreeJoin(s_frozen, r_frozen, op);
    ++report->attempted;
    std::vector<Pair> got;
    for (const auto& [s_tid, r_tid] : transposed.matches) {
      got.emplace_back(r_tid, s_tid);
    }
    report->Check(SameAsOracle(&got, expected, &why),
                  "TreeJoin(S, R) transpose: " + why);
  }

  // ---- Metrics. ------------------------------------------------------------
  const double join_best = Min(join_ms);
  const double pbsm_best = Min(pbsm_ms);
  report->Set("join_ms", join_best);
  report->Set("pbsm_join_ms", pbsm_best);
  report->Set("select_p50_us", Quantile(select_best_us, 0.50));
  report->Set("select_p99_us", Quantile(select_best_us, 0.99));
  report->Set("peak_rss_mib", PeakRssMiB());

  report->Set("join.samples", static_cast<double>(join_ms.size()));
  report->Set("join.matches", static_cast<double>(join_counts.matches.size()));
  report->Set("join.theta_upper_tests",
              static_cast<double>(join_counts.theta_upper_tests));
  report->Set("join.theta_tests", static_cast<double>(join_counts.theta_tests));
  report->Set("join.qual_pairs",
              static_cast<double>(join_counts.qual_pairs_examined));
  report->Set("join.nodes_accessed",
              static_cast<double>(join_counts.nodes_accessed));
  report->Set("join.filter_pass_ratio",
              static_cast<double>(join_counts.theta_tests) /
                  static_cast<double>(join_counts.theta_upper_tests));
  report->Set("join.ns_per_theta_upper",
              join_best * 1e6 /
                  static_cast<double>(join_counts.theta_upper_tests));
  report->Set("join.allocs", static_cast<double>(join_allocs));
  report->Set("select.samples", static_cast<double>(select_samples));
  if (sel_traced > 0) {
    const double n = static_cast<double>(sel_traced);
    report->Set("select.theta_upper_tests_mean", sel_upper / n);
    report->Set("select.nodes_accessed_mean", sel_nodes / n);
    report->Set("select.allocs_mean", sel_allocs / n);
  }
  report->Set("pbsm.theta_upper_tests",
              static_cast<double>(pbsm_counts.theta_upper_tests));
  report->Set("pbsm.allocs", static_cast<double>(pbsm_allocs));
  if (!pbsm_pool_ms.empty()) {
    const double pooled = Min(pbsm_pool_ms);
    report->Set("pbsm.pool_ms", pooled);
    report->Set("pbsm.speedup", pbsm_best / pooled);
    report->Set("pool.tasks_executed", static_cast<double>(tasks_executed) /
                                           static_cast<double>(pbsm_runs));
    report->Set("pool.tasks_stolen", static_cast<double>(tasks_stolen) /
                                         static_cast<double>(pbsm_runs));
  }
  if (!join_traced_ms.empty()) {
    report->Set("trace.overhead_pct",
                (Min(join_traced_ms) / join_best - 1.0) * 100.0);
  }
}

}  // namespace perfbench

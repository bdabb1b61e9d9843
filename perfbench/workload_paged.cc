// paged_clustered: the paper's own setting. Two relations of Gaussian-
// clustered rectangles live on the simulated disk behind a buffer pool
// much smaller than the relations plus their R-trees. Each round joins
// them with within_distance(d) through the disk-backed RTreeGenTree
// adapters from a cold pool, runs the same join as PBSM over JoinItems
// collected at set-up, and window-selects S once per query window.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/join.h"
#include "core/select.h"
#include "core/theta_ops.h"
#include "exec/partitioned_join.h"
#include "exec/thread_pool.h"
#include "workload/rect_generator.h"
#include "workloads.h"

namespace perfbench {

using namespace spatialjoin;

namespace {

// 800 tuples per relation keep one paged join near 0.1 s. The shared
// host slows every core together for tens of seconds at a time; a run's
// fastest join reads the cost of the work only when the run holds a few
// hundred joins, and a 4,000-tuple join (~0.7 s) left it about thirty.
constexpr int kTuples = 800;  // per relation
constexpr int kClusters = 12;
constexpr double kClusterSigma = 32.0;
constexpr double kMinExtent = 2.0;
constexpr double kMaxExtent = 20.0;
constexpr double kDistance = 12.0;
constexpr int kWindows = 1000;
// Windows selected per round, in turn, so a round stays short and every
// window is still selected many times over the run.
constexpr int kWindowsPerRound = 250;
constexpr double kMinWindow = 20.0;
constexpr double kMaxWindow = 80.0;
constexpr int64_t kPoolFrames = 40;
constexpr uint64_t kClusterLayoutSeed = 12;

}  // namespace

void RunPagedClustered(const Options& options, Tracer* tracer,
                       Report* report) {
  const Rectangle world(0, 0, 2000, 2000);

  // ---- Set-up: generate and load. -----------------------------------------
  int64_t t = NowNs();
  std::vector<Rectangle> r_rects, s_rects, windows;
  {
    Span span(tracer, "setup.generate");
    // Fixed cluster centres, each given the same number of objects of
    // each relation, so every seed has the same skew and about the same
    // amount of join work; the seed draws the objects. R and S
    // alternate, so they share the clusters.
    RectGenerator layout(world, kClusterLayoutSeed);
    const std::vector<Point> clusters = layout.Points(kClusters);
    Rng rng(StreamSeed(options.seed, 1));
    while (static_cast<int>(s_rects.size()) < kTuples) {
      const size_t drawn = r_rects.size() + s_rects.size();
      const Point& c = clusters[drawn / 2 % clusters.size()];
      const Point p(c.x + rng.NextGaussian() * kClusterSigma,
                    c.y + rng.NextGaussian() * kClusterSigma);
      if (!world.ContainsPoint(p)) continue;
      const double hw = rng.NextDouble(kMinExtent, kMaxExtent) / 2;
      const double hh = rng.NextDouble(kMinExtent, kMaxExtent) / 2;
      (r_rects.size() == s_rects.size() ? r_rects : s_rects)
          .emplace_back(p.x - hw, p.y - hh, p.x + hw, p.y + hh);
    }
    // Windows centred on S objects, so each selects from a cluster. The
    // sides are the same for every seed, spread evenly over [kMinWindow,
    // kMaxWindow] (heights in golden-ratio steps, so they do not rise
    // with the widths); the seed draws their order and the centres. The
    // largest windows set select_p99_us, which followed the seed when
    // the sides were drawn at random.
    std::vector<std::pair<double, double>> sides;
    for (int w = 0; w < kWindows; ++w) {
      const double u = (w + 0.5) / kWindows;
      const double v = std::fmod((w + 0.5) * 0.6180339887498949, 1.0);
      sides.emplace_back(kMinWindow + u * (kMaxWindow - kMinWindow),
                         kMinWindow + v * (kMaxWindow - kMinWindow));
    }
    Rng pick(StreamSeed(options.seed, 3));
    pick.Shuffle(sides);
    for (const auto& [width, height] : sides) {
      const Point c = s_rects[pick.NextUint64(s_rects.size())].Center();
      windows.emplace_back(c.x - width / 2, c.y - height / 2, c.x + width / 2,
                           c.y + height / 2);
    }
  }
  report->Set("setup.generate_s", (NowNs() - t) / 1e9);

  t = NowNs();
  StoredPair stored;
  {
    Span span(tracer, "setup.load");
    // The paper's page size s = 2000, tuple size v = 300 and page
    // utilization l = 0.75: five tuples per relation page.
    StorageConfig config;
    config.page_size = 2000;
    config.pool_frames = kPoolFrames;
    config.layout = RelationLayout::kClustered;
    config.pad_tuples_to = 300;
    config.fill_factor = 0.75;
    stored = LoadPair(r_rects, s_rects, config, report);
  }
  report->Set("setup.load_s", (NowNs() - t) / 1e9);
  report->Set("storage.pages_allocated",
              static_cast<double>(stored.disk->stats().pages_allocated));

  t = NowNs();
  std::vector<exec::JoinItem> r_items, s_items;
  {
    Span span(tracer, "setup.collect_items");
    r_items = exec::CollectJoinItems(*stored.r, 1);
    s_items = exec::CollectJoinItems(*stored.s, 1);
  }
  report->Set("setup.collect_items_s", (NowNs() - t) / 1e9);

  // PBSM runs inline on one worker, like the tree join it is compared
  // with: a 3 ms join spread over four threads times their wake-ups.
  exec::ThreadPool pool(1);
  report->Set("setup_s", (NowNs() - ProcessStartNs()) / 1e9);

  // ---- Oracle (not part of set-up). --------------------------------------
  const std::vector<Box> r_boxes = ToBoxes(r_rects);
  const std::vector<Box> s_boxes = ToBoxes(s_rects);
  const std::vector<Pair> expected =
      WithinDistancePairs(r_boxes, s_boxes, kDistance);
  std::vector<std::vector<int64_t>> answers;
  std::vector<Value> selectors;
  for (const Rectangle& w : windows) {
    answers.push_back(WindowAnswer(s_boxes, ToBox(w)));
    selectors.emplace_back(w);
  }

  // ---- Measured rounds. ---------------------------------------------------
  // Each round runs one join, one PBSM run and the next quarter of the
  // windows, so every operation samples the whole run and its fastest
  // repetition is not lost to one slow stretch of the shared CPU.
  WithinDistanceOp within(kDistance);
  OverlapsOp overlaps;
  BufferPool& buffers = *stored.pool;
  DiskManager& disk = *stored.disk;
  std::vector<double> join_ms, join_traced_ms, pbsm_ms;
  // Fastest time of each window's SELECT over all passes.
  std::vector<double> select_best_us(selectors.size(), 1e18);
  int64_t select_samples = 0;
  JoinResult join_counts;
  BufferPoolStats join_pool;
  IoStats join_io;
  int64_t join_allocs = 0;
  int64_t sel_upper = 0, sel_nodes = 0, sel_allocs = 0, sel_requests = 0;
  int64_t sel_traced = 0;
  size_t next_window = 0;
  std::string why;

  const auto round = [&](bool traced) {
    Tracer* active = traced ? tracer : nullptr;

    // Algorithm JOIN through the buffer pool, starting cold each time so
    // the page counts repeat exactly.
    report->Check(buffers.Clear().ok(), "BufferPool::Clear");
    buffers.ResetStats();
    disk.ResetStats();
    JoinResult joined;
    {
      Span span(active, "core.TreeJoin");
      SetAllocCounting(traced);
      const int64_t a0 = AllocCount();
      const int64_t t0 = NowNs();
      joined = TreeJoin(*stored.r_tree, *stored.s_tree, within);
      const double ms = (NowNs() - t0) / 1e6;
      SetAllocCounting(false);
      if (traced) {
        join_allocs = AllocCount() - a0;
        join_traced_ms.push_back(ms);
      } else {
        join_ms.push_back(ms);
      }
    }
    join_pool = buffers.stats();
    join_io = disk.stats();
    ++report->attempted;
    std::vector<Pair> got(joined.matches.begin(), joined.matches.end());
    report->Check(SameAsOracle(&got, expected, &why), "TreeJoin: " + why);
    report->Check(join_pool.misses == join_io.page_reads,
                  "buffer-pool misses " + std::to_string(join_pool.misses) +
                      " != disk page reads " +
                      std::to_string(join_io.page_reads));
    join_counts = std::move(joined);

    // The same join as PBSM over the collected items.
    {
      Span span(active, "exec.PartitionedJoin");
      const int64_t t0 = NowNs();
      JoinResult partitioned =
          exec::PartitionedJoin(r_items, s_items, within, &pool);
      if (!traced) pbsm_ms.push_back((NowNs() - t0) / 1e6);
      ++report->attempted;
      got.assign(partitioned.matches.begin(), partitioned.matches.end());
      report->Check(SameAsOracle(&got, expected, &why), "PBSM: " + why);
    }

    // The round's share of window SELECTs on S through the warm pool. A
    // traced run counts the first pass over the windows (its first four
    // rounds), so each window is counted once, after the same operations
    // in every run of a seed.
    for (int i = 0; i < kWindowsPerRound; ++i) {
      const size_t w = next_window;
      next_window = (next_window + 1) % selectors.size();
      const bool counted = options.trace && sel_traced < kWindows;
      Span span(active, "core.SpatialSelect");
      const BufferPoolStats before = buffers.stats();
      SetAllocCounting(counted);
      const int64_t a0 = AllocCount();
      const int64_t t0 = NowNs();
      SelectResult sel = SpatialSelect(selectors[w], *stored.s_tree, overlaps);
      const double us = (NowNs() - t0) / 1e3;
      SetAllocCounting(false);
      if (counted) {
        const BufferPoolStats after = buffers.stats();
        sel_allocs += AllocCount() - a0;
        sel_upper += sel.theta_upper_tests;
        sel_nodes += sel.nodes_accessed;
        sel_requests += (after.hits + after.misses) -
                        (before.hits + before.misses);
        ++sel_traced;
      } else if (!traced) {
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
  };
  RunPhase(options.seconds, options.trace, round);
  // Finish the last pass, so every window is selected equally often.
  while (next_window != 0) round(false);

  // ---- Metrics. ------------------------------------------------------------
  const double join_best = Min(join_ms);
  report->Set("join_ms", join_best);
  report->Set("pbsm_join_ms", Min(pbsm_ms));
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
    report->Set("storage.select_page_requests_mean", sel_requests / n);
  }
  const int64_t requests = join_pool.hits + join_pool.misses;
  report->Set("storage.page_requests", static_cast<double>(requests));
  report->Set("storage.page_reads", static_cast<double>(join_io.page_reads));
  report->Set("storage.hit_ratio", static_cast<double>(join_pool.hits) /
                                       static_cast<double>(requests));
  report->Set("storage.evictions", static_cast<double>(join_pool.evictions));
  if (!join_traced_ms.empty()) {
    report->Set("trace.overhead_pct",
                (Min(join_traced_ms) / join_best - 1.0) * 100.0);
  }
}

}  // namespace perfbench

// End-to-end benchmark of the spatial-join engine and its query service.
//
//   sj_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir <dir>]
//
// Runs one workload (see README.md), checks every result against the
// benchmark's own oracle, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs record spans around each
// call into an engine layer, write them to <out-dir>/trace-*.json, and
// report the per-layer metrics instead.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Options;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" list.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"join_ms", "ms"},
    {"pbsm_join_ms", "ms"},
    {"select_p50_us", "us"},
    {"select_p99_us", "us"},
    {"peak_rss_mib", "MiB"},
};

// Must match BENCHMARK.json's "per_layer" list. A layer a workload does
// not exercise reports 0.
const std::vector<MetricDef> kPerLayer = {
    {"setup.generate_s", "s"},
    {"setup.load_s", "s"},
    {"setup.materialize_s", "s"},
    {"setup.collect_items_s", "s"},
    {"setup.server_start_s", "s"},
    {"storage.pages_allocated", "count"},
    {"join.samples", "count"},
    {"join.matches", "count"},
    {"join.theta_upper_tests", "count"},
    {"join.theta_tests", "count"},
    {"join.qual_pairs", "count"},
    {"join.nodes_accessed", "count"},
    {"join.filter_pass_ratio", "ratio"},
    {"join.ns_per_theta_upper", "ns"},
    {"join.allocs", "count"},
    {"select.samples", "count"},
    {"select.theta_upper_tests_mean", "count"},
    {"select.nodes_accessed_mean", "count"},
    {"select.allocs_mean", "count"},
    {"pbsm.theta_upper_tests", "count"},
    {"pbsm.allocs", "count"},
    {"pbsm.pool_ms", "ms"},
    {"pbsm.speedup", "ratio"},
    {"pool.tasks_executed", "count"},
    {"pool.tasks_stolen", "count"},
    {"storage.page_requests", "count"},
    {"storage.page_reads", "count"},
    {"storage.hit_ratio", "ratio"},
    {"storage.evictions", "count"},
    {"storage.select_page_requests_mean", "count"},
    {"service.capacity_qps", "queries/s"},
    {"service.engine_select_p50_us", "us"},
    {"service.engine_join_ms", "ms"},
    {"service.select_overhead_us", "us"},
    {"service.open_select_p50_us", "us"},
    {"service.open_select_p99_us", "us"},
    {"service.join_p50_ms", "ms"},
    {"service.join_p95_ms", "ms"},
    {"service.send_lag_p99_us", "us"},
    {"protocol.encode_join_reply_us", "us"},
    {"protocol.decode_join_reply_us", "us"},
    {"server.queue_wait_mean_us", "us"},
    {"server.peak_inflight", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "sj_perfbench: " << why
            << "\nusage: sj_perfbench --workload "
               "<inmem_uniform|paged_clustered|service_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0) || options.seconds > 600) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return options;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  perfbench::Tracer tracer(options.trace);
  perfbench::Report report;

  std::string why;
  report.Check(perfbench::OracleSelfTest(&why), why);

  if (options.workload == "inmem_uniform") {
    perfbench::RunInmemUniform(options, &tracer, &report);
  } else if (options.workload == "paged_clustered") {
    perfbench::RunPagedClustered(options, &tracer, &report);
  } else if (options.workload == "service_mixed") {
    perfbench::RunServiceMixed(options, &tracer, &report);
  } else {
    Usage("unknown workload " + options.workload);
  }

  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".json";
    if (!tracer.Write(path)) {
      std::cerr << "sj_perfbench: cannot write " << path << "\n";
    }
  }

  const std::vector<MetricDef>& defs = options.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const MetricDef& def : defs) {
    auto it = report.values().find(def.name);
    double value = 0.0;
    if (it != report.values().end()) {
      value = it->second;
    } else if (!options.trace && report.correct()) {
      std::cerr << "sj_perfbench: workload did not measure " << def.name
                << "\n";
      return 3;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + def.name + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + def.unit + "\"}";
  }
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return report.correct() ? 0 : 1;
}

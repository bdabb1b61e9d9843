// Shared plumbing of the benchmark program: options, clocks, heap
// allocation counting, span recording, quantiles and the result report.
#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory for the span file and the service socket, relative to the
  // working directory (AF_UNIX paths are limited to ~107 bytes).
  std::string out_dir = ".";
};

/// Steady-clock nanoseconds.
int64_t NowNs();

/// NowNs() taken during static initialization, before main: the start
/// of the process as far as set-up time is concerned.
int64_t ProcessStartNs();

/// Derives an independent 64-bit seed for input stream `stream`.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Heap allocation counting. The benchmark binary replaces the global
/// operator new; while counting is on, every allocation on any thread is
/// counted. Off by default (untraced runs pay one relaxed load).
void SetAllocCounting(bool on);
int64_t AllocCount();

/// Peak resident set of this process so far.
double PeakRssMiB();

/// Nearest-rank quantile: the smallest sample with at least q·n samples
/// at or below it. Requires a non-empty sample.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Min(const std::vector<double>& samples);

/// Spans recorded by the benchmark's own code around each call into an
/// engine layer, kept in memory and written as a Chrome trace at exit.
/// Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int Begin(const char* name);
  void End(int span);
  bool Write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  bool enabled_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

/// Scoped span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~Span() {
    if (tracer_) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Calls body(traced) back to back for `seconds`: at least once, or twice
/// in a traced run, whose calls alternate traced and untraced so that
/// the tracing overhead can be measured within the run.
template <typename Body>
void RunPhase(double seconds, bool trace, Body body) {
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const int min_calls = trace ? 2 : 1;
  for (int i = 0; i < min_calls || NowNs() < stop; ++i) {
    body(trace && i % 2 == 0);
  }
}

/// What one run reports: correctness, operation counts and metrics.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  /// Records a wrong result; the run then reports correct = false.
  void Fail(const std::string& what);
  /// Checks `ok`, recording `what` as a failure when it does not hold.
  bool Check(bool ok, const std::string& what);
  bool correct() const { return failures_ == 0; }
  const std::map<std::string, double>& values() const { return values_; }

  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  std::map<std::string, double> values_;
  int failures_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_

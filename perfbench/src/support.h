// Seeded draws, sample statistics, spans and JSON output for the TriQ
// end-to-end benchmark. Everything here is independent of the engine, so
// the self test can check it on hand-sized inputs.
#ifndef TRIQ_PERFBENCH_SUPPORT_H_
#define TRIQ_PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64: the same seed gives the same stream on every platform
/// (std:: distributions are implementation-defined, so none are used).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1: P(rank k) ∝ 1 / (k + 1)^s, drawn by binary
/// search over the cumulative weights.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;
  /// Probability of rank k (for the self test).
  double Probability(size_t k) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile of `samples` (p in (0, 100]); sorts a copy.
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Number of samples strictly above the nearest-rank p-th percentile
/// position: the count a tail figure rests on.
size_t SamplesBeyond(size_t n, double p);

double Median(std::vector<double> samples);

/// The median, over consecutive windows (in the order taken), of each
/// window's nearest-rank p-th percentile. The samples are cut into
/// max(1, n / window) windows of near-equal size, so every sample counts
/// and each window holds at least `window` samples when n >= window. A
/// burst of host contention that spoils a minority of windows leaves it
/// unchanged, where it would move the run-wide percentile.
double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double p);

/// Whether operation `i` of an alternating run is traced. Operations
/// pair up (0-1, 2-3, ...) with one traced and one not; the traced one
/// comes second in even pairs and first in odd pairs, so an effect of the
/// order within a pair cancels out.
inline bool TracedOperation(size_t i) { return (i % 2 == 1) != (i / 2 % 2 == 1); }

/// The tracing overhead from operation latencies taken in the order of
/// TracedOperation: the median, over pairs, of traced / untraced, less
/// one, in percent. Both operations of a pair run within moments of each
/// other, so host drift that spans seconds cancels out. 0 with no
/// complete pair.
double PairedOverheadPct(const std::vector<double>& alternating);

/// In-memory span recorder. Spans carry a name, start, end, parent span
/// and operation id; they are kept in memory and summarised when the run
/// ends. A disabled recorder costs one branch per span. An alternating
/// recorder traces every other operation of a workload loop, so one run
/// measures the loop both untraced and traced (OverheadPct).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int64_t parent = -1;
    uint64_t op = 0;
  };

  explicit Tracer(bool enabled, bool alternate = false)
      : enabled_(enabled && !alternate),
        alternate_(alternate),
        origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Marks the start of a workload operation. An alternating recorder
  /// records spans for half of them (TracedOperation); otherwise a no-op.
  void BeginOperation() {
    if (alternate_) enabled_ = TracedOperation(op_seconds_.size());
  }
  /// Records the latency of the operation BeginOperation started.
  void EndOperation(double seconds) {
    if (alternate_) op_seconds_.push_back(seconds);
  }
  /// PairedOverheadPct over the recorded operations.
  double OverheadPct() const { return PairedOverheadPct(op_seconds_); }
  size_t operations() const { return op_seconds_.size(); }

  /// Opens a span; returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent, uint64_t op);
  void End(int64_t id);

  /// Total and self time (duration minus the time its children cover)
  /// per span name, in seconds, plus the span count.
  struct Totals {
    double total_s = 0;
    double self_s = 0;
    size_t count = 0;
  };
  std::map<std::string, Totals> Summarise() const;

 private:
  double Now() const { return SecondsSince(origin_); }

  bool enabled_;
  bool alternate_;
  std::vector<double> op_seconds_;  // alternating: latencies in order
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: records `name` under `parent` for the scope's lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = -1,
             uint64_t op = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Renders `value` with all its significant digits (JSON number).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // TRIQ_PERFBENCH_SUPPORT_H_

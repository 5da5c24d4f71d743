// Process-wide metrics registry: named monotonic counters and log-bucketed
// latency histograms. All mutation paths are lock-free atomics so hot paths
// (per-query, per-match-attempt) can record without contention; the registry
// map itself is mutex-protected and entries are created on demand with
// stable addresses for the life of the process.
//
// Snapshots feed Database::Stats().
#ifndef SUMTAB_COMMON_METRICS_H_
#define SUMTAB_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sumtab {

/// Monotonic counter. Increment is a relaxed atomic add.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Latency histogram over microseconds with power-of-two buckets:
/// bucket i counts samples in [2^i, 2^(i+1)) us (bucket 0 is [0, 2)).
/// Quantiles are estimated from bucket upper bounds — good to a factor
/// of two, which is all a wall-time histogram honestly supports.
class Histogram {
 public:
  static constexpr int kNumBuckets = 40;

  void Record(int64_t micros);

  struct Snapshot {
    int64_t count = 0;
    int64_t sum_micros = 0;
    int64_t max_micros = 0;
    int64_t p50_micros = 0;
    int64_t p95_micros = 0;
    int64_t p99_micros = 0;
  };
  Snapshot Snap() const;
  void Reset();

 private:
  int64_t Quantile(double q, const int64_t* buckets, int64_t count) const;

  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_micros_{0};
  std::atomic<int64_t> max_micros_{0};
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
};

/// Scoped timer: records elapsed wall time into a histogram on destruction.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

  /// Elapsed microseconds so far (also what ~ScopedLatency records).
  int64_t ElapsedMicros() const;

 private:
  Histogram* hist_;
  int64_t start_nanos_;
};

class MetricsRegistry {
 public:
  /// The process-wide registry. Never destroyed (intentionally leaked)
  /// so records from detached threads at shutdown stay safe.
  static MetricsRegistry& Global();

  /// Find-or-create by name. Returned pointers are stable forever.
  Counter* counter(const std::string& name);
  Histogram* histogram(const std::string& name);

  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, Histogram::Snapshot> histograms;
  };
  Snapshot Snap() const;

  /// Zeroes every registered metric (tests isolate phases with this;
  /// entries stay registered).
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Current monotonic time in nanoseconds (steady clock).
int64_t MonotonicNanos();

}  // namespace sumtab

#endif  // SUMTAB_COMMON_METRICS_H_

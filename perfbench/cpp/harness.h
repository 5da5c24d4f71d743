// Measurement plumbing shared by every perfbench workload: a seedable RNG,
// the clock, latency statistics (median and the tail-percentile rule),
// in-memory spans with self-time arithmetic, and the metric set that is
// printed as the run's final JSON line.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, deterministic, seedable. The whole op stream of a run
/// derives from one of these, seeded by --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

double Median(std::vector<double> values);

/// The tail-latency rule: the highest percentile, up to p99, that still has
/// at least ten samples above it. With n samples sorted ascending, k =
/// max(10, n / 100) samples lie beyond the reported one, at index n - 1 - k
/// and percentile 100 * (n - k) / n: p99 from 1000 samples on, a lower
/// percentile below that. k grows with n without a jump, so a run that
/// completes a few more or fewer ops never switches percentiles. Above p99,
/// sub-millisecond queries measure how the operating system schedules the
/// process more than the program itself. With n <= 10 the median is
/// reported (percentile 50).
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// ---- spans ----

/// One timed call into a layer. Spans of one operation share `op_id`;
/// `parent` is the id of the enclosing span, or -1 for an op's root.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t op_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Collects spans in memory; they are written out once, when the run ends.
class Tracer {
 public:
  /// Records a finished span and returns its id.
  int64_t Record(const std::string& name, int64_t op_id, int64_t parent,
                 int64_t start_ns, int64_t end_ns);
  /// Widens an already recorded span (an op's root grows as its calls run).
  void Extend(int64_t id, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its children cover (overlapping children are
/// counted once; the parts of a child outside its parent are ignored).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

struct LayerTime {
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
/// SelfTimes summed per span name.
std::map<std::string, LayerTime> SelfTimeByName(const std::vector<Span>& spans);

// ---- metrics ----

/// True for names made only of letters, digits, '_', '.' and '-'.
bool ValidMetricName(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; the final JSON line's "metrics".
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

/// The double with 12 significant digits, more than any clock here resolves,
/// as JSON (non-finite values become 0).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

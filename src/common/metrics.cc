#include "common/metrics.h"

#include <chrono>

namespace sumtab {

namespace {

int BucketIndex(int64_t micros) {
  if (micros < 1) return 0;
  int idx = 0;
  while (micros > 1 && idx < Histogram::kNumBuckets - 1) {
    micros >>= 1;
    ++idx;
  }
  return idx;
}

int64_t BucketUpperBound(int idx) { return (int64_t{1} << (idx + 1)) - 1; }

}  // namespace

int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Histogram::Record(int64_t micros) {
  if (micros < 0) micros = 0;
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  int64_t prev = max_micros_.load(std::memory_order_relaxed);
  while (micros > prev &&
         !max_micros_.compare_exchange_weak(prev, micros,
                                            std::memory_order_relaxed)) {
  }
  buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
}

int64_t Histogram::Quantile(double q, const int64_t* buckets,
                            int64_t count) const {
  if (count == 0) return 0;
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(count - 1));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  int64_t buckets[kNumBuckets];
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_micros = sum_micros_.load(std::memory_order_relaxed);
  s.max_micros = max_micros_.load(std::memory_order_relaxed);
  s.p50_micros = Quantile(0.50, buckets, s.count);
  s.p95_micros = Quantile(0.95, buckets, s.count);
  s.p99_micros = Quantile(0.99, buckets, s.count);
  return s;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
  max_micros_.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

ScopedLatency::ScopedLatency(Histogram* hist)
    : hist_(hist), start_nanos_(MonotonicNanos()) {}

int64_t ScopedLatency::ElapsedMicros() const {
  return (MonotonicNanos() - start_nanos_) / 1000;
}

ScopedLatency::~ScopedLatency() {
  if (hist_ != nullptr) hist_->Record(ElapsedMicros());
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->Snap();
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace sumtab

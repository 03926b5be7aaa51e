#ifndef CLOG_COMMON_METRICS_H_
#define CLOG_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace clog {

/// Monotonic counter identified by name. Cheap to bump on hot paths, and
/// safe to bump from concurrent node threads in real-threads mode: one
/// relaxed atomic add, no ordering anyone depends on (counters are read
/// after quiesce).
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-boundary histogram for latency-like quantities, with log-linear
/// buckets: one per value below 8, then 8 equal sub-buckets per power of
/// two, so a quantile is off by at most 1/8 of its value before
/// interpolation. A Record updates five fields together, so unlike Counter
/// it takes a real (per-histogram) mutex; the critical section is a
/// handful of arithmetic ops.
class Histogram {
 public:
  /// 8 exact buckets plus 8 per octave for bit widths 4 through 64.
  static constexpr int kNumBuckets = 8 + 8 * 61;

  Histogram();

  void Record(std::uint64_t v);
  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t min() const;
  std::uint64_t max() const;
  double Mean() const;
  /// Approximate quantile in [0,1] from bucket interpolation.
  double Quantile(double q) const;
  void Reset();

 private:
  double QuantileLocked(double q) const;

  mutable std::mutex mu_;
  std::uint64_t buckets_[kNumBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// Point-in-time summary of one named histogram. Quantiles come from
/// bucket interpolation (deterministic for deterministic inputs), so bench
/// harnesses can gate on them directly.
struct HistogramStat {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  std::uint64_t max = 0;
};

/// Named metrics registry. Each node and the network own one; benchmark
/// harnesses snapshot and diff them across phases.
///
/// Storage is unordered_map — emit paths pay one string hash, no ordered
/// tree walk — and element references are stable across rehash, so hot
/// call sites may cache `&GetCounter(...)` / `&GetHistogram(...)` once and
/// bump through the pointer (Node does this for its steady-state metrics).
/// All snapshot/dump output is sorted by name for stable diffs.
///
/// The registry maps are mutex-guarded (Get* may rehash under concurrent
/// first-touches in real-threads mode); the returned references stay valid
/// and lock-free to use, so cached handles keep their zero-lookup cost.
class Metrics {
 public:
  /// Returns the counter with the given name, creating it on first use.
  /// The reference stays valid for the life of this registry.
  Counter& GetCounter(const std::string& name);
  /// Returns the histogram with the given name, creating it on first use.
  /// The reference stays valid for the life of this registry.
  Histogram& GetHistogram(const std::string& name);

  /// Counter value or 0 if never touched.
  std::uint64_t CounterValue(const std::string& name) const;

  /// Histogram summary, or a zeroed stat (count == 0) if never touched.
  HistogramStat HistogramValue(const std::string& name) const;

  /// All counters, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> Snapshot() const;

  /// All histograms, sorted by name.
  std::vector<HistogramStat> HistogramSnapshot() const;

  void Reset();

  /// Multi-line dump: "name = value" for counters, then
  /// "name: count=… mean=… p50=… p95=… p99=… max=…" per histogram.
  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, Counter> counters_;
  std::unordered_map<std::string, Histogram> histograms_;
};

}  // namespace clog

#endif  // CLOG_COMMON_METRICS_H_

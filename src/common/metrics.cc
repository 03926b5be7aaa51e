#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace clog {
namespace {

// Log-linear buckets: values below kSub get one bucket each, and every
// octave [2^k, 2^(k+1)) above is cut into kSub equal sub-buckets, so a
// bucket is never wider than 1/kSub of its lower bound.
constexpr int kSubBits = 3;
constexpr std::uint64_t kSub = 1ull << kSubBits;

int BucketFor(std::uint64_t v) {
  if (v < kSub) return static_cast<int>(v);
  const int shift = (63 - __builtin_clzll(v)) - kSubBits;
  return static_cast<int>(kSub * (shift + 1) + ((v >> shift) - kSub));
}

std::uint64_t BucketLow(int b) {
  if (b < static_cast<int>(kSub)) return static_cast<std::uint64_t>(b);
  const int shift = b / static_cast<int>(kSub) - 1;
  return (kSub + b % kSub) << shift;
}

std::uint64_t BucketHigh(int b) {
  if (b + 1 >= Histogram::kNumBuckets) return ~0ull;
  return BucketLow(b + 1);
}

HistogramStat StatOf(const std::string& name, const Histogram& h) {
  HistogramStat s;
  s.name = name;
  s.count = h.count();
  s.mean = h.Mean();
  s.p50 = h.Quantile(0.50);
  s.p95 = h.Quantile(0.95);
  s.p99 = h.Quantile(0.99);
  s.max = h.max();
  return s;
}

}  // namespace

Histogram::Histogram() = default;

void Histogram::Record(std::uint64_t v) {
  std::lock_guard<std::mutex> lk(mu_);
  ++buckets_[BucketFor(v)];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_;
}

std::uint64_t Histogram::sum() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sum_;
}

std::uint64_t Histogram::min() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_ ? min_ : 0;
}

std::uint64_t Histogram::max() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_;
}

double Histogram::Mean() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_ ? static_cast<double>(sum_) / count_ : 0;
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lk(mu_);
  return QuantileLocked(q);
}

double Histogram::QuantileLocked(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(q * count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    if (seen + buckets_[b] >= rank + 1 && buckets_[b] > 0) {
      double frac = buckets_[b] == 0
                        ? 0
                        : static_cast<double>(rank - seen) / buckets_[b];
      return static_cast<double>(BucketLow(b)) +
             frac * static_cast<double>(BucketHigh(b) - BucketLow(b));
    }
    seen += buckets_[b];
  }
  return static_cast<double>(max_);
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (std::uint64_t& b : buckets_) b = 0;
  count_ = 0;
  sum_ = 0;
  min_ = ~0ull;
  max_ = 0;
}

Counter& Metrics::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_[name];
}

Histogram& Metrics::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return histograms_[name];
}

std::uint64_t Metrics::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

HistogramStat Metrics::HistogramValue(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    HistogramStat s;
    s.name = name;
    return s;
  }
  return StatOf(name, it->second);
}

std::vector<std::pair<std::string, std::uint64_t>> Metrics::Snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.value());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<HistogramStat> Metrics::HistogramSnapshot() const {
  std::vector<HistogramStat> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.push_back(StatOf(name, h));
  std::sort(out.begin(), out.end(),
            [](const HistogramStat& a, const HistogramStat& b) {
              return a.name < b.name;
            });
  return out;
}

void Metrics::Reset() {
  // Values reset in place; entries (and cached element pointers) survive.
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [_, c] : counters_) c.Reset();
  for (auto& [_, h] : histograms_) h.Reset();
}

std::string Metrics::ToString() const {
  std::string out;
  for (const auto& [name, value] : Snapshot()) {
    out += name;
    out += " = ";
    out += std::to_string(value);
    out += "\n";
  }
  for (const HistogramStat& s : HistogramSnapshot()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ": count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f "
                  "max=%llu\n",
                  static_cast<unsigned long long>(s.count), s.mean, s.p50,
                  s.p95, s.p99, static_cast<unsigned long long>(s.max));
    out += s.name;
    out += buf;
  }
  return out;
}

}  // namespace clog

#ifndef CLOG_BENCH_BENCH_UTIL_H_
#define CLOG_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/workload.h"

/// \file
/// Shared scaffolding for the experiment binaries (DESIGN.md Section 3).
/// Each binary regenerates one experiment's table: workload setup, sweep,
/// and aligned rows of message/byte/IO/simulated-time metrics. Absolute
/// numbers depend on the cost model; the *shape* (who wins, by what
/// factor, where curves cross) is the reproduction target.

namespace clog::bench {

/// Scratch cluster living under /tmp, wiped on construction.
class BenchCluster {
 public:
  explicit BenchCluster(const std::string& name, LoggingMode mode,
                        std::size_t buffer_frames = 256,
                        std::uint64_t log_capacity = 0,
                        const LoggingPolicy& policy = {}) {
    dir_ = "/tmp/clog_bench_" + name;
    std::system(("rm -rf " + dir_).c_str());
    ClusterOptions options;
    options.dir = dir_;
    options.node_defaults.logging_policy = policy;
    options.node_defaults.logging_mode = mode;
    options.node_defaults.buffer_frames = buffer_frames;
    options.node_defaults.log_capacity_bytes = log_capacity;
    cluster_ = std::make_unique<Cluster>(options);
  }
  ~BenchCluster() { std::system(("rm -rf " + dir_).c_str()); }

  Cluster* operator->() { return cluster_.get(); }
  Cluster& get() { return *cluster_; }

 private:
  std::string dir_;
  std::unique_ptr<Cluster> cluster_;
};

/// Aborts the binary on error — benches have no recovery story.
inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "BENCH FATAL %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Value(Result<T> r, const char* what) {
  Check(r.status(), what);
  return std::move(r).value();
}

/// Prints the experiment banner.
inline void Banner(const char* id, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", id, claim);
}

/// Simulated nanoseconds -> milliseconds for printing.
inline double Ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
/// Same, for interpolated histogram quantiles (HistogramStat::p50 etc.).
inline double Ms(double ns) { return ns / 1e6; }

/// Transactions per simulated second.
inline double Tps(std::uint64_t txns, std::uint64_t sim_ns) {
  return sim_ns == 0 ? 0.0
                     : static_cast<double>(txns) * 1e9 /
                           static_cast<double>(sim_ns);
}

/// Writes a flat `{"key": number, ...}` map — the format every recorded
/// BENCH_*.json file uses and scripts/check_bench_regression.py reads.
inline void WriteJsonKv(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& kv) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH FATAL cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < kv.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.6f%s\n", kv[i].first.c_str(), kv[i].second,
                 i + 1 < kv.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace clog::bench

#endif  // CLOG_BENCH_BENCH_UTIL_H_

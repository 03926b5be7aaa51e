// Real-threads wall-clock WAL benchmark (docs/architecture_modes.md).
//
// Everything in the other bench binaries runs on the deterministic
// simulator and reports *simulated* time. This binary measures the log
// append and scan paths on real threads, a real clock and real fsyncs,
// reporting wall-clock latency distributions the way log libraries
// (NanoLog, spdlog) report theirs — exact p50/p99.9 over raw
// per-operation samples, not histogram interpolation. End-to-end commit
// and restart latency on real threads are perfbench's job
// (perfbench/README.md).
//
//   BM_LogAppend   One thread appending to and forcing its own log the
//                  way a local_commit transaction does: BEGIN, 4 UPDATEs
//                  with 64-byte before- and after-images, COMMIT, a force,
//                  then END. In real mode every append and force of a
//                  node's log runs on the thread holding that node's run
//                  token, so this is the traffic a log sees. Measures each
//                  append and each force (pwrite + fdatasync).
//   BM_LogScan     One LogCursor scanning a durable log of 100k update
//                  records (64-byte after-images) from its first record to
//                  its end: the forward-scan read path that restart
//                  analysis, PSN-list construction and redo run on.
//
// Results go to BENCH_real.json (scripts/run_bench.sh --real). They are
// wall-clock and machine-dependent: recorded for eyeballing trends, never
// gated (docs/performance.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"

using namespace clog;
using namespace clog::bench;

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct LatencyStats {
  double ops_per_sec = 0;
  double p50_ns = 0;
  double p999_ns = 0;
};

/// Exact quantiles over the pooled raw samples (sorted, nearest-rank).
LatencyStats Summarize(std::vector<std::uint64_t> samples,
                       std::uint64_t wall_ns) {
  LatencyStats out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    std::size_t rank = static_cast<std::size_t>(q * (samples.size() - 1));
    return static_cast<double>(samples[rank]);
  };
  out.p50_ns = at(0.50);
  out.p999_ns = at(0.999);
  out.ops_per_sec = wall_ns == 0 ? 0
                                 : static_cast<double>(samples.size()) * 1e9 /
                                       static_cast<double>(wall_ns);
  return out;
}

struct AppendStats {
  LatencyStats append;
  LatencyStats force;
};

AppendStats MeasureLogAppend(int txns) {
  // Memory-backed fs on purpose: this bench measures the log's own work
  // (encode, checksum, buffer, the write and sync syscalls), not a device.
  std::string dir = "/dev/shm/clog_bench_real_log";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  LogManager log;
  Check(log.Open(dir + "/wal.log"), "log open");

  LogRecord begin, update, commit, end;
  begin.type = LogRecordType::kBegin;
  update.type = LogRecordType::kUpdate;
  update.op = RecordOp::kUpdate;
  update.redo_image.assign(64, 'a');
  update.undo_image.assign(64, 'b');
  commit.type = LogRecordType::kCommit;
  end.type = LogRecordType::kEnd;

  std::vector<std::uint64_t> append_ns, force_ns;
  append_ns.reserve(static_cast<std::size_t>(txns) * 7);
  force_ns.reserve(static_cast<std::size_t>(txns));
  auto append = [&](const LogRecord& rec, Lsn* lsn) {
    const std::uint64_t s0 = NowNs();
    Check(log.Append(rec, lsn), "append");
    append_ns.push_back(NowNs() - s0);
  };
  const std::uint64_t t0 = NowNs();
  for (int t = 0; t < txns; ++t) {
    const TxnId txn = static_cast<TxnId>(t + 1);
    Lsn lsn = kNullLsn;
    begin.txn = update.txn = commit.txn = end.txn = txn;
    append(begin, &lsn);
    for (std::uint32_t u = 0; u < 4; ++u) {
      update.page = PageId{0, u};
      update.slot = static_cast<SlotId>(t % 8);
      update.psn_before = static_cast<Psn>(t);
      update.prev_lsn = lsn;
      append(update, &lsn);
    }
    commit.prev_lsn = lsn;
    append(commit, &lsn);
    const std::uint64_t f0 = NowNs();
    Check(log.Flush(lsn), "force");
    force_ns.push_back(NowNs() - f0);
    end.prev_lsn = lsn;
    append(end, &lsn);
  }
  const std::uint64_t wall = NowNs() - t0;
  Check(log.Close(), "log close");
  std::system(("rm -rf " + dir).c_str());

  AppendStats out;
  out.append = Summarize(std::move(append_ns), wall);
  out.force = Summarize(std::move(force_ns), wall);
  return out;
}

struct ScanStats {
  double records_per_sec = 0;
  double ns_per_record = 0;
};

/// Median of `passes` full scans of one durable log of `records` records.
ScanStats MeasureLogScan(int records, int passes) {
  // /dev/shm for the same reason as MeasureLogAppend: this measures the
  // read path (syscalls, copies, checksum, decode), not a device.
  std::string dir = "/dev/shm/clog_bench_real_scan";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  LogManager log;
  Check(log.Open(dir + "/wal.log"), "log open");
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = 1;
  rec.op = RecordOp::kUpdate;
  rec.redo_image.assign(64, 'r');
  for (int i = 0; i < records; ++i) {
    rec.page = PageId{0, static_cast<std::uint32_t>(i % 64)};
    rec.psn_before = static_cast<Psn>(i);
    Lsn lsn = 0;
    Check(log.Append(rec, &lsn), "append");
  }
  Check(log.Flush(log.end_lsn()), "flush");

  std::vector<std::uint64_t> pass_ns;
  for (int p = 0; p < passes; ++p) {
    LogCursor cursor(&log, LogManager::first_lsn());
    LogRecord got;
    Status st;
    const std::uint64_t t0 = NowNs();
    while (cursor.Next(&got, nullptr, &st)) {
    }
    pass_ns.push_back(NowNs() - t0);
    Check(st, "scan");
    if (cursor.records_read() != static_cast<std::uint64_t>(records)) {
      std::fprintf(stderr, "BENCH FATAL scan returned %llu of %d records\n",
                   static_cast<unsigned long long>(cursor.records_read()),
                   records);
      std::exit(1);
    }
  }
  Check(log.Close(), "log close");
  std::system(("rm -rf " + dir).c_str());

  std::sort(pass_ns.begin(), pass_ns.end());
  const double median = static_cast<double>(pass_ns[pass_ns.size() / 2]);
  ScanStats out;
  out.ns_per_record = median / records;
  out.records_per_sec = median == 0 ? 0 : records * 1e9 / median;
  return out;
}

void WriteJson(const std::string& path,
               const std::vector<std::pair<std::string, double>>& kv) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH FATAL cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < kv.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.3f%s\n", kv[i].first.c_str(), kv[i].second,
                 i + 1 < kv.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg == "--quick") quick = true;
  }
  // The append phase runs for about a second: at a few hundred thousand
  // transactions/s a shorter run is over before scheduler noise averages
  // out.
  const int txns = quick ? 1'000 : 200'000;

  Banner("real mode (wall clock)",
         "Log append and force latency of one transaction-shaped stream on "
         "a real thread, and the speed of a full forward log scan. "
         "Raw-sample p50/p99.9 in microseconds; machine-dependent, "
         "recorded but never gated.");

  std::vector<std::pair<std::string, double>> kv;

  std::printf("--- BM_LogAppend: %d transactions of BEGIN, 4 UPDATEs, COMMIT, "
              "force, END ---\n",
              txns);
  std::printf("%-10s | %12s %10s %10s\n", "op", "ops/s", "p50_us",
              "p99.9_us");
  auto report = [&kv](const std::string& op, const LatencyStats& st) {
    std::printf("%-10s | %12.0f %10.2f %10.2f\n", op.c_str(), st.ops_per_sec,
                st.p50_ns / 1e3, st.p999_ns / 1e3);
    const std::string key = "real_log_" + op;
    kv.push_back({key + "_ops_per_sec", st.ops_per_sec});
    kv.push_back({key + "_p50_ns", st.p50_ns});
    kv.push_back({key + "_p999_ns", st.p999_ns});
  };
  const AppendStats append = MeasureLogAppend(txns);
  report("append", append.append);
  report("force", append.force);

  const int scan_records = quick ? 5'000 : 100'000;
  const int scan_passes = quick ? 3 : 11;
  std::printf("\n--- BM_LogScan: durable log of %d update records, median of "
              "%d full scans ---\n",
              scan_records, scan_passes);
  ScanStats scan = MeasureLogScan(scan_records, scan_passes);
  std::printf("%12s %12s\n", "records/s", "ns/record");
  std::printf("%12.0f %12.1f\n", scan.records_per_sec, scan.ns_per_record);
  kv.push_back({"real_log_scan_records_per_sec", scan.records_per_sec});
  kv.push_back({"real_log_scan_ns_per_record", scan.ns_per_record});

  if (!json_path.empty()) {
    WriteJson(json_path, kv);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

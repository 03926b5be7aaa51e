#include "trace/trace_export.h"

#include <cinttypes>
#include <cstdio>

namespace clog {

namespace {

std::string TxnStr(std::uint64_t txn) {
  // TxnIds pack the coordinating node into the top 16 bits (types.h).
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%" PRIu64,
                static_cast<std::uint64_t>(txn >> 48),
                static_cast<std::uint64_t>(txn & 0xFFFFFFFFFFFFull));
  return buf;
}

std::string PageStr(std::uint64_t packed) {
  const PageId pid = PageId::Unpack(packed);
  return pid.ToString();
}

std::string MsgStr(std::uint32_t type, const TraceFormatOptions& opts) {
  if (opts.msg_name) return std::string(opts.msg_name(type));
  return "msg#" + std::to_string(type);
}

const char* RestoreSourceStr(std::uint32_t source) {
  // Values of recovery/instant_restore.h RestoreSource.
  switch (source) {
    case 0: return "already_durable";
    case 1: return "peer_cache";
    case 2: return "archive+redo";
    case 3: return "seed+redo";
    case 4: return "poisoned";
  }
  return "source?";
}

const char* RecoveryPhaseStr(std::uint64_t phase) {
  // Values of core/cluster.h RecoveryPhase.
  switch (phase) {
    case 0: return "analyze";
    case 1: return "exchange";
    case 2: return "redo";
    case 3: return "undo+finish";
  }
  return "phase?";
}

std::string Args(const TraceEvent& e, const TraceFormatOptions& opts) {
  char buf[96];
  switch (e.type) {
    case TraceEventType::kTxnBegin:
    case TraceEventType::kTxnCommit:
    case TraceEventType::kTxnAbort:
      return "txn=" + TxnStr(e.a);
    case TraceEventType::kLogAppend:
      std::snprintf(buf, sizeof(buf),
                    "lsn=%" PRIu64 " bytes=%" PRIu64 " rec=%u", e.a, e.b, e.c);
      return buf;
    case TraceEventType::kLogForce:
      std::snprintf(buf, sizeof(buf), "up_to=%" PRIu64 " bytes=%" PRIu64, e.a,
                    e.b);
      return buf;
    case TraceEventType::kGroupCommitPark:
    case TraceEventType::kGroupCommitCover:
      std::snprintf(buf, sizeof(buf), " commit_lsn=%" PRIu64, e.b);
      return "txn=" + TxnStr(e.a) + buf;
    case TraceEventType::kPageFetch:
      std::snprintf(buf, sizeof(buf), " psn=%" PRIu64 " from=%u", e.b, e.c);
      return "page=" + PageStr(e.a) + buf;
    case TraceEventType::kPageShip:
      std::snprintf(buf, sizeof(buf), " psn=%" PRIu64 " peer=%u", e.b, e.c);
      return "page=" + PageStr(e.a) + buf;
    case TraceEventType::kPageEvict:
      return "page=" + PageStr(e.a) + (e.c != 0 ? " dirty" : " clean");
    case TraceEventType::kFlushNotify:
      std::snprintf(buf, sizeof(buf), " flushed_psn=%" PRIu64 " owner=%u",
                    e.b, e.c);
      return "page=" + PageStr(e.a) + buf;
    case TraceEventType::kLockWait:
      std::snprintf(buf, sizeof(buf), " requester=%" PRIu64 " mode=%u", e.b,
                    e.c);
      return "page=" + PageStr(e.a) + buf;
    case TraceEventType::kDeadlock:
      return "txn=" + TxnStr(e.a);
    case TraceEventType::kRpcSend:
      std::snprintf(buf, sizeof(buf), "to=%" PRIu64 " bytes=%" PRIu64 " ",
                    e.a, e.b);
      return buf + MsgStr(e.c, opts);
    case TraceEventType::kRpcRecv:
      std::snprintf(buf, sizeof(buf), "from=%" PRIu64 " bytes=%" PRIu64 " ",
                    e.a, e.b);
      return buf + MsgStr(e.c, opts);
    case TraceEventType::kRpcRetry:
      std::snprintf(buf, sizeof(buf),
                    "to=%" PRIu64 " backoff_ns=%" PRIu64 " attempt=%u", e.a,
                    e.b, e.c);
      return buf;
    case TraceEventType::kRpcPark:
      std::snprintf(buf, sizeof(buf), "owner=%" PRIu64, e.a);
      return buf;
    case TraceEventType::kRecoveryPhase:
      std::snprintf(buf, sizeof(buf), "%s dur_ns=%" PRIu64,
                    RecoveryPhaseStr(e.a), e.b);
      return buf;
    case TraceEventType::kCheckpointBegin:
    case TraceEventType::kCheckpointEnd:
      std::snprintf(buf, sizeof(buf), "lsn=%" PRIu64, e.a);
      return buf;
    case TraceEventType::kArchivePass:
      std::snprintf(buf, sizeof(buf),
                    "seq=%" PRIu64 " written=%" PRIu64 " total=%u", e.a, e.b,
                    e.c);
      return buf;
    case TraceEventType::kPagePoison:
      std::snprintf(buf, sizeof(buf), "page=%" PRIu64 " needed_psn=%" PRIu64,
                    e.a, e.b);
      return buf;
    case TraceEventType::kMediaRecovery:
      std::snprintf(buf, sizeof(buf),
                    "candidates=%" PRIu64 " drained=%" PRIu64
                    " poisoned=%u",
                    e.a, e.b, e.c);
      return buf;
    case TraceEventType::kRestorePlan:
      std::snprintf(buf, sizeof(buf),
                    "planned=%" PRIu64 " with_peer_copy=%" PRIu64, e.a, e.b);
      return buf;
    case TraceEventType::kPageRestored:
      std::snprintf(buf, sizeof(buf), " psn=%" PRIu64 " source=%s", e.b,
                    RestoreSourceStr(e.c));
      return "page=" + PageStr(e.a) + buf;
    case TraceEventType::kRestoreDone:
      std::snprintf(buf, sizeof(buf), "restored=%" PRIu64 " dur_ns=%" PRIu64,
                    e.a, e.b);
      return buf;
    case TraceEventType::kNodeCrash:
    case TraceEventType::kNone:
      return "";
  }
  return "";
}

}  // namespace

std::string FormatTraceEvent(const TraceEvent& e,
                             const TraceFormatOptions& opts) {
  char head[64];
  std::snprintf(head, sizeof(head), "t=%.3fms seq=%" PRIu64 " ",
                static_cast<double>(e.time_ns) / 1e6, e.seq);
  std::string out = head;
  out += TraceEventTypeName(e.type);
  const std::string args = Args(e, opts);
  if (!args.empty()) {
    out += ' ';
    out += args;
  }
  return out;
}

std::string FormatTrace(const TraceSink& sink, std::size_t tail,
                        const TraceFormatOptions& opts) {
  std::string out;
  for (NodeId node : sink.Nodes()) {
    const std::vector<TraceEvent> events = sink.Events(node);
    const std::size_t start =
        (tail != 0 && events.size() > tail) ? events.size() - tail : 0;
    out += "node " + std::to_string(node) + ": " +
           std::to_string(sink.emitted(node)) + " events";
    if (start != 0 || sink.emitted(node) > events.size()) {
      out += " (showing newest " + std::to_string(events.size() - start) + ")";
    }
    out += '\n';
    for (std::size_t i = start; i < events.size(); ++i) {
      out += "  " + FormatTraceEvent(events[i], opts) + '\n';
    }
  }
  return out;
}

namespace {

void AppendJsonEvent(std::string* out, bool* first, NodeId node,
                     const char* ph, std::uint64_t tid, double ts_us,
                     const std::string& name, const std::string& args_json) {
  if (!*first) *out += ",\n";
  *first = false;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"pid\":%u,\"tid\":%" PRIu64
                ",\"ph\":\"%s\",\"ts\":%.3f,\"name\":\"%s\"",
                node, tid, ph, ts_us, name.c_str());
  *out += buf;
  if (!args_json.empty()) *out += ",\"args\":{" + args_json + "}";
  if (ph[0] == 'i') *out += ",\"s\":\"t\"";
  *out += "}";
}

}  // namespace

std::string ChromeTraceJson(const TraceSink& sink,
                            const TraceFormatOptions& opts) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (NodeId node : sink.Nodes()) {
    for (const TraceEvent& e : sink.Events(node)) {
      const double ts = static_cast<double>(e.time_ns) / 1000.0;
      switch (e.type) {
        case TraceEventType::kTxnBegin:
          AppendJsonEvent(&out, &first, node, "B", e.a & 0xFFFFFFFFFFFFull,
                          ts, "txn " + TxnStr(e.a), "");
          break;
        case TraceEventType::kTxnCommit:
        case TraceEventType::kGroupCommitCover:
          AppendJsonEvent(&out, &first, node, "E", e.a & 0xFFFFFFFFFFFFull,
                          ts, "txn " + TxnStr(e.a), "");
          break;
        case TraceEventType::kTxnAbort:
          AppendJsonEvent(&out, &first, node, "E", e.a & 0xFFFFFFFFFFFFull,
                          ts, "txn " + TxnStr(e.a), "\"abort\":true");
          break;
        case TraceEventType::kRecoveryPhase: {
          // Complete ("X") event spanning the phase duration.
          const double dur = static_cast<double>(e.b) / 1000.0;
          char args[64];
          std::snprintf(args, sizeof(args), "\"dur_ns\":%" PRIu64, e.b);
          if (!first) out += ",\n";
          first = false;
          char buf[200];
          std::snprintf(buf, sizeof(buf),
                        "{\"pid\":%u,\"tid\":0,\"ph\":\"X\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"name\":\"recovery %s\",\"args\":{%s}}",
                        node, ts - dur, dur, RecoveryPhaseStr(e.a), args);
          out += buf;
          break;
        }
        default: {
          std::string detail = Args(e, opts);
          // Escape is unnecessary: Args emits only [A-Za-z0-9:=#._ ]+.
          AppendJsonEvent(&out, &first, node, "i", 0, ts,
                          std::string(TraceEventTypeName(e.type)),
                          "\"detail\":\"" + detail + "\"");
          break;
        }
      }
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace clog

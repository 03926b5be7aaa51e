#ifndef CLOG_COMMON_FSUTIL_H_
#define CLOG_COMMON_FSUTIL_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

/// \file
/// Durable-file helpers shared by the seven side files a node keeps beside
/// its log and database: the log master pointer and log mark, the space map
/// (node.map), the archive metadata (node.archive.meta), the poison and
/// restore ledgers (node.poison, node.restore) and the handoff ledger
/// (node.handoff); the binary trace file uses them too. Each is one
/// checksummed record file, rewritten wholesale and crash-atomically, so
/// the framing lives here and each caller keeps only its body schema.

namespace clog {

/// Crash-atomically replaces `path` with `blob`: write + fsync a temp file
/// (rename must never publish a name whose *contents* are still in the page
/// cache), rename it over `path`, then fsync the directory so the rename
/// itself survives a crash. After OK the old or the new contents are on
/// disk — never a mix, never a torn file.
Status AtomicWriteFile(const std::string& path, const std::string& blob);

/// Reads all of `path` into `*out`. NotFound only if the file does not
/// exist (ENOENT); any other failure to open or read it (EMFILE, EIO,
/// ENOTDIR, ...) is an IOError, never mistaken for absence.
Status ReadFileToString(const std::string& path, std::string* out);

/// Removes `path` if it exists; absence is not an error.
Status RemoveFileIfExists(const std::string& path);

/// Checksummed record file: `u32 magic | body | u32 crc32c(magic | body)`,
/// little-endian, written through AtomicWriteFile.
Status WriteRecordFile(const std::string& path, std::uint32_t magic,
                       Slice body);

/// Reads a record file written by WriteRecordFile into `*body`. NotFound
/// only if the file does not exist; Corruption for a short file, a wrong
/// magic or a checksum mismatch; IOError for any other failure.
Status ReadRecordFile(const std::string& path, std::uint32_t magic,
                      std::string* body);

}  // namespace clog

#endif  // CLOG_COMMON_FSUTIL_H_

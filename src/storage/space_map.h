#ifndef CLOG_STORAGE_SPACE_MAP_H_
#define CLOG_STORAGE_SPACE_MAP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"

/// \file
/// Space allocation map for one node's database, including the PSN seeding
/// technique the paper adopts from ARIES/CSA [15] (Section 2.1): "the PSN
/// stored on the space allocation map containing information about the page
/// in question is assigned to the PSN field of the page" when the page is
/// allocated. Seeding a reallocated page's PSN past the PSNs of its previous
/// life keeps per-page PSNs monotone forever, which the distributed recovery
/// ordering depends on.

namespace clog {

/// Persistent allocation state. The map is tiny relative to the database,
/// so it is rewritten wholesale as a crash-atomic record file (fsynced,
/// renamed, directory fsynced; common/fsutil.h) on every mutation;
/// allocation and deallocation are rare compared to page updates.
class SpaceMap {
 public:
  /// Loads the map from `path`, starting empty only if the file does not
  /// exist: a damaged map is Corruption and an unreadable one IOError.
  Status Open(const std::string& path);

  /// Allocates the lowest free page number and returns it together with the
  /// PSN seed the new page must be formatted with. Durable before return.
  Result<std::uint32_t> Allocate();

  /// Marks `page_no` free and records `last_psn + 1` as the PSN seed for
  /// its next incarnation. Durable before return.
  Status Free(std::uint32_t page_no, Psn last_psn);

  /// True iff `page_no` is currently allocated.
  bool IsAllocated(std::uint32_t page_no) const;

  /// PSN seed to format `page_no` with (valid for allocated pages too: it is
  /// the seed the current incarnation started from).
  Psn PsnSeed(std::uint32_t page_no) const;

  /// All currently allocated page numbers, ascending.
  std::vector<std::uint32_t> AllocatedPages() const;

  std::size_t AllocatedCount() const;

 private:
  Status Persist() const;
  Status Load();

  struct Entry {
    bool allocated = false;
    Psn psn_seed = 0;
  };

  std::string path_;
  std::map<std::uint32_t, Entry> entries_;
  std::uint32_t next_fresh_ = 0;  ///< Lowest never-used page number.
};

}  // namespace clog

#endif  // CLOG_STORAGE_SPACE_MAP_H_

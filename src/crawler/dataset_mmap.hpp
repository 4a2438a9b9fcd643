// dataset_mmap.hpp — the on-disk dataset format: a versioned zero-copy
// snapshot.
//
// The seven flat CompactDataset arrays are written verbatim into a
// sectioned little-endian file, each section 64-byte aligned, fronted by a
// header (magic + format version + section table). Loading is open + mmap
// + O(sections) pointer fixup — no per-record work at all; the OS pages
// data in lazily as the analysis touches it. Every tool that writes or
// reads a dataset file (the CLI, the bench cache) uses this format.
//
// Layout (all integers little-endian):
//
//   [0, 64)    FileHeader   magic "BTPUBMAP", version, section count,
//                           total file bytes
//   [64, ...)  section table: {id, reserved, offset, size} x count
//   ...        sections, each starting on a 64-byte boundary:
//                Meta         style/window/name header fields
//                TorrentPods  TorrentRecordPod[]   (fixed 136-byte rows)
//                Text         interned string arena
//                FilenameRefs StrRef[]
//                PeerBlob     6-byte compact peer entries
//                Sightings    SimTime[]
//                UserPods     UserPagePod[]        (sorted by username)
//                UserTimes    SimTime[]
//
// The 64-byte section alignment over-satisfies every element type's
// natural alignment (max 8) and keeps rows cacheline-aligned, so the
// mapped arrays can be reinterpreted in place on any little-endian host.
//
// Validation on open has two parts. The O(sections) part checks magic,
// version, section bounds, alignment, divisibility and the Meta style
// byte. Then one O(n) pass, validate() in compact_dataset.hpp, checks every
// per-record string reference, span and enum byte. The mapping is still
// zero-copy, and an opened snapshot is safe to analyse through its view.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

#include "crawler/compact_dataset.hpp"

namespace btpub {

/// On-disk format version; bump on any layout change. Cache-key builders
/// include it so a layout bump starts fresh cache files instead of
/// rejecting the old ones.
int mmap_format_version() noexcept;

/// Writes the snapshot. The ostream overload exists for deterministic
/// byte-level tests; the file overload is the normal path. It writes
/// `path.tmp.<pid>` and renames it over `path`, so a snapshot that is
/// already open keeps its bytes. Throws std::runtime_error on I/O failure.
void save_mmap_snapshot(const CompactDataset& dataset, std::ostream& out);
void save_mmap_snapshot(const CompactDataset& dataset, const std::string& path);

/// A loaded snapshot: the file stays mapped for the object's lifetime and
/// view() exposes the arrays in place. Neither copied nor moved (a
/// function returning one by value returns a prvalue, which needs neither).
class MappedDataset {
 public:
  /// Opens, maps and validates every record. Throws std::runtime_error
  /// with a specific message on missing/truncated/corrupt/version-
  /// mismatched files.
  explicit MappedDataset(const std::string& path);
  ~MappedDataset();

  MappedDataset(const MappedDataset&) = delete;
  MappedDataset& operator=(const MappedDataset&) = delete;

  /// Zero-copy view into the mapping; valid while this object lives.
  const CompactDatasetView& view() const noexcept { return view_; }

  std::size_t mapped_bytes() const noexcept { return size_; }

 private:
  void validate_and_fixup(const std::string& path);

  void* map_ = nullptr;
  std::size_t size_ = 0;
  CompactDatasetView view_;
};

/// Cache helper for the bench harnesses: returns the snapshot at `path`
/// when it opens and validates; otherwise says why on stderr, runs
/// `generate`, saves the result to `path` and returns it reopened from
/// there. A failed save throws std::runtime_error naming the path and the
/// errno, since there is no snapshot to return.
MappedDataset load_or_generate(const std::string& path,
                               const std::function<Dataset()>& generate);

}  // namespace btpub

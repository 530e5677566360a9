#pragma once
// Memory-mapped, checksummed segment files — the durable cold tier.
//
// Sealed blocks are immutable, so their on-disk home is an append-only
// *segment* file holding *extents*: length-prefixed, CRC32C-checksummed
// byte payloads (the seq-independent serialization of one sealed block —
// see Block::encode_extent).  Extents are content-addressed: the store
// keys every extent by the 128-bit hash of its payload, so sealing a
// block whose bytes are already on disk (identical series replicated
// across tenants, say) re-references the existing extent instead of
// writing it again — the content-addressed store discipline of Nix,
// applied to time-series blocks.  References are counted in memory and
// recomputed from the WAL on open; when every extent in a *sealed*
// segment is dead, retention drops the whole file with one unlink —
// deferred until the next durable checkpoint, so the WAL on disk never
// references a file that no longer exists.
//
// One segment is *active* at a time: appends go there until it reaches
// `rotate_bytes`, then a footer index (every extent's hash/offset/
// length/CRC) is written, the file is fsynced and never written again,
// and a new active segment opens.  A sealed segment reopens in O(1) by
// its footer; a segment that died before its footer (crash) is
// recovered by a header-to-header scan that stops at the first torn or
// corrupt extent.  Reads are served through a read-only mmap of the
// file, remapped lazily as the active segment grows, so a cold block
// load touches only the pages of its own extent.
//
// Byte-level layout: DESIGN.md §13.  Thread safety: appends and
// refcount changes are single-writer (the database's own discipline);
// load() takes an internal mutex so parallel query workers can
// materialize cold blocks concurrently.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "tsdb/checksum.hpp"

namespace envmon::tsdb {

// Where one sealed block's payload lives on disk.  `hash` is the block's
// content address; (segment_id, offset, length, crc) pin the extent the
// store resolved it to.
struct ExtentRef {
  std::uint32_t segment_id = 0;
  std::uint64_t offset = 0;  // of the payload (past the extent header)
  std::uint32_t length = 0;  // payload bytes
  std::uint32_t crc = 0;     // CRC32C over the payload
  ContentHash hash;
  friend bool operator==(const ExtentRef&, const ExtentRef&) = default;
};

// One mapped segment file.  Owns the fd and the read-only mapping.
class SegmentFile {
 public:
  struct ExtentEntry {
    ContentHash hash;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
  };

  SegmentFile() = default;
  ~SegmentFile();
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  // Creates a fresh active segment (truncating any existing file).
  Status create(const std::string& path, std::uint32_t id);
  // Opens an existing file: O(1) via the footer when present and valid,
  // otherwise a scan that recovers every whole, checksum-clean extent
  // and ignores the torn tail.  `entries` receives the live directory.
  Status open(const std::string& path, std::uint32_t id,
              std::vector<ExtentEntry>& entries);

  // Appends one extent (header + payload); returns its payload offset.
  // Active segments only.
  Status append(std::span<const std::uint8_t> payload, const ContentHash& hash,
                std::uint32_t crc, std::uint64_t& offset);
  // Writes the footer index and fsyncs; the segment becomes immutable.
  Status seal(std::span<const ExtentEntry> entries);
  Status sync();

  // Payload bytes of one extent via the mapping (remaps if the file has
  // grown past the current view).  Empty span when out of bounds.
  [[nodiscard]] std::span<const std::uint8_t> payload(std::uint64_t offset,
                                                      std::uint32_t length) const;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] bool sealed() const { return sealed_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  Status map_at_least(std::uint64_t bytes) const;
  void unmap() const;

  std::string path_;
  std::uint32_t id_ = 0;
  int fd_ = -1;
  std::uint64_t size_ = 0;  // bytes written (file size)
  bool sealed_ = false;
  // Read-side mapping, grown lazily; mutable so const reads can remap.
  mutable void* map_ = nullptr;
  mutable std::uint64_t map_size_ = 0;
};

// The segment directory: dedup index, refcounts, rotation, retention.
class BlockStore {
 public:
  struct Options {
    std::size_t rotate_bytes = 8u << 20;  // active segment seals past this
  };

  struct Stats {
    std::uint64_t extents_appended = 0;  // physical extent writes
    std::uint64_t dedup_hits = 0;        // appends served by an existing extent
    std::uint64_t loads = 0;             // cold extent reads (materializations)
    std::uint64_t load_failures = 0;     // CRC/bounds failures (quarantines)
    std::uint64_t segments_deleted = 0;  // dead segment files unlinked
  };

  BlockStore() = default;

  // Opens `dir` (which must exist), loading every `segment-*.seg`:
  // sealed ones by footer, unsealed ones by scan.  Extents start with
  // refcount zero; replay re-references the live ones via add_ref().
  Status open(const std::string& dir, const Options& options);
  // Seals the active segment (if any) and closes all files.
  Status close();
  [[nodiscard]] bool is_open() const { return open_; }

  // Optional observability: counters bumped on dedup hits, cold loads,
  // and quarantines.
  void attach_metrics(obs::Counter* dedup, obs::Counter* cold_loads,
                      obs::Counter* quarantined) {
    dedup_metric_ = dedup;
    cold_loads_metric_ = cold_loads;
    quarantined_metric_ = quarantined;
  }

  // Stores `payload` (or re-references a byte-identical existing
  // extent), bumping its refcount.  Rotates the active segment as
  // needed.
  Status append(std::span<const std::uint8_t> payload, ExtentRef& ref, bool& dedup_hit);

  // Recovery path: re-reference an extent named by a WAL record.  Fails
  // if the ref does not match a known extent (unknown segment, bad
  // offset/len/crc) — the recovery loop treats that as WAL corruption.
  Status add_ref(const ExtentRef& ref);

  // Zeroes every refcount (recovery restarting replay from a different
  // WAL after a partial, failed attempt polluted the counts).
  void clear_refs();

  // Drops one reference.  A segment whose live extents hit zero is only
  // *marked* dead — its file must outlive every WAL record that still
  // references its extents, so the unlink is deferred to the
  // gc_dead_segments() the database runs behind the next durable
  // checkpoint.  Until then the dead extents stay dedup-revivable.
  void release(const ExtentRef& ref);

  // True when some sealed, non-active segment has no live extents —
  // the database's cue to rotate a checkpoint so the dead files can be
  // reclaimed.
  [[nodiscard]] bool has_dead_segments() const;

  // Reads and CRC-verifies one extent payload.  kInternal on checksum
  // mismatch or bounds violation (the caller quarantines the block).
  // Safe to call from parallel query workers.
  Status load(const ExtentRef& ref, std::vector<std::uint8_t>& payload);

  // Counts a quarantine whose payload read succeeded but whose decode
  // did not (structurally invalid extent bytes behind a valid CRC).
  void note_decode_failure();

  // Unlinks sealed segments with no live extents.  Only safe once a
  // checkpoint referencing no extent of those segments is durable (a
  // checkpoint encodes live refs only, so every zero-ref segment
  // qualifies) — the database calls this at the tail of a successful
  // checkpoint rotation, never in between.
  void gc_dead_segments();

  // fsync the active segment (ordering: extents are made durable before
  // the WAL records that reference them).
  Status sync();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::size_t extent_count() const { return index_.size(); }
  [[nodiscard]] std::uint64_t disk_bytes() const;

 private:
  struct Extent {
    ExtentRef ref;
    std::uint32_t refs = 0;
  };
  struct Segment {
    std::unique_ptr<SegmentFile> file;
    std::uint32_t live_extents = 0;
    std::vector<SegmentFile::ExtentEntry> entries;  // for the footer at seal
  };

  Status rotate();
  SegmentFile* segment(std::uint32_t id);
  [[nodiscard]] std::string segment_path(std::uint32_t id) const;

  std::string dir_;
  Options options_;
  bool open_ = false;
  std::map<std::uint32_t, Segment> segments_;
  std::uint32_t active_id_ = 0;  // 0 = none
  std::uint32_t next_id_ = 1;
  // Content index: every on-disk extent (live or revivable), keyed by
  // hash; collisions chain and are resolved by byte compare.
  std::multimap<ContentHash, Extent> index_;
  std::mutex load_mutex_;
  Stats stats_;
  obs::Counter* dedup_metric_ = nullptr;
  obs::Counter* cold_loads_metric_ = nullptr;
  obs::Counter* quarantined_metric_ = nullptr;
};

}  // namespace envmon::tsdb

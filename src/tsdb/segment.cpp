#include "tsdb/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "tsdb/wire.hpp"

namespace envmon::tsdb {

namespace {

// On-disk constants (DESIGN.md §13).  All integers little-endian.
constexpr std::uint32_t kSegmentMagic = 0x47535645;  // "EVSG"
constexpr std::uint32_t kFooterMagic = 0x46535645;   // "EVSF"
constexpr std::uint32_t kExtentMagic = 0x58455645;   // "EVEX"
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint64_t kSegmentHeaderBytes = 24;
constexpr std::uint64_t kExtentHeaderBytes = 32;
constexpr std::uint64_t kFooterEntryBytes = 32;
constexpr std::uint64_t kTrailerBytes = 24;
// Sanity ceiling on one extent; a 4096-row block is a few KB even raw.
constexpr std::uint32_t kMaxExtentBytes = 64u << 20;

Status io_error(const char* what) {
  return Status::internal(std::string(what) + ": " + std::strerror(errno));
}

// Reads exactly `len` bytes at `offset`; false on short read or error.
bool pread_exact(int fd, void* buf, std::size_t len, std::uint64_t offset) {
  auto* dst = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::pread(fd, dst, len, static_cast<off_t>(offset));
    if (n <= 0) return false;
    dst += n;
    offset += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* src = bytes.data();
  std::size_t len = bytes.size();
  while (len > 0) {
    const ssize_t n = ::write(fd, src, len);
    if (n <= 0) return false;
    src += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

// Best-effort directory fsync so creates/unlinks/renames are durable.
void sync_parent_dir(const std::string& path) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

SegmentFile::~SegmentFile() {
  unmap();
  if (fd_ >= 0) ::close(fd_);
}

void SegmentFile::unmap() const {
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
    map_size_ = 0;
  }
}

Status SegmentFile::map_at_least(std::uint64_t bytes) const {
  if (map_size_ >= bytes && map_ != nullptr) return Status::ok();
  unmap();
  void* m = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd_, 0);
  if (m == MAP_FAILED) return io_error("mmap segment");
  map_ = m;
  map_size_ = size_;
  return Status::ok();
}

Status SegmentFile::create(const std::string& path, std::uint32_t id) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) return io_error("create segment");
  path_ = path;
  id_ = id;
  wire::Writer header;
  header.u32(kSegmentMagic);
  header.u32(kFormatVersion);
  header.u32(id);
  header.u32(0);  // reserved
  header.u64(0);  // reserved
  if (!write_all(fd_, header.span())) return io_error("write segment header");
  size_ = kSegmentHeaderBytes;
  sync_parent_dir(path);
  return Status::ok();
}

Status SegmentFile::open(const std::string& path, std::uint32_t id,
                         std::vector<ExtentEntry>& entries) {
  entries.clear();
  fd_ = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) return io_error("open segment");
  path_ = path;
  id_ = id;
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return io_error("stat segment");
  size_ = static_cast<std::uint64_t>(st.st_size);
  if (size_ < kSegmentHeaderBytes) {
    return Status::internal("segment shorter than its header");
  }
  std::uint8_t raw_header[kSegmentHeaderBytes];
  if (!pread_exact(fd_, raw_header, sizeof(raw_header), 0)) {
    return io_error("read segment header");
  }
  wire::Reader header({raw_header, sizeof(raw_header)});
  if (header.u32() != kSegmentMagic || header.u32() != kFormatVersion ||
      header.u32() != id) {
    return Status::internal("segment header magic/version/id mismatch");
  }

  // Fast path: a valid footer is the whole directory.
  if (size_ >= kSegmentHeaderBytes + kTrailerBytes) {
    std::uint8_t raw_trailer[kTrailerBytes];
    if (!pread_exact(fd_, raw_trailer, sizeof(raw_trailer), size_ - kTrailerBytes)) {
      return io_error("read segment trailer");
    }
    wire::Reader trailer({raw_trailer, sizeof(raw_trailer)});
    const std::uint64_t index_offset = trailer.u64();
    const std::uint32_t count = trailer.u32();
    const std::uint32_t index_crc = trailer.u32();
    const std::uint32_t version = trailer.u32();
    const std::uint32_t magic = trailer.u32();
    const std::uint64_t index_bytes = static_cast<std::uint64_t>(count) * kFooterEntryBytes;
    if (magic == kFooterMagic && version == kFormatVersion &&
        index_offset >= kSegmentHeaderBytes &&
        index_offset + index_bytes + kTrailerBytes == size_) {
      std::vector<std::uint8_t> raw_index(index_bytes);
      if (index_bytes > 0 &&
          !pread_exact(fd_, raw_index.data(), raw_index.size(), index_offset)) {
        return io_error("read segment index");
      }
      if (crc32c(raw_index) == index_crc) {
        wire::Reader index(raw_index);
        entries.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          ExtentEntry e;
          e.hash.hi = index.u64();
          e.hash.lo = index.u64();
          e.offset = index.u64();
          e.length = index.u32();
          e.crc = index.u32();
          entries.push_back(e);
        }
        sealed_ = true;
        return Status::ok();
      }
    }
  }

  // No (valid) footer: the segment died before sealing.  Recover every
  // whole, checksum-clean extent front-to-back; the first torn or
  // corrupt one ends the scan, and the file is truncated to the clean
  // prefix so a later seal() can stamp a footer after it.
  std::uint64_t pos = kSegmentHeaderBytes;
  std::vector<std::uint8_t> payload;
  while (pos + kExtentHeaderBytes <= size_) {
    std::uint8_t raw_extent[kExtentHeaderBytes];
    if (!pread_exact(fd_, raw_extent, sizeof(raw_extent), pos)) break;
    wire::Reader extent({raw_extent, sizeof(raw_extent)});
    if (extent.u32() != kExtentMagic) break;
    const std::uint32_t length = extent.u32();
    const std::uint32_t crc = extent.u32();
    (void)extent.u32();  // reserved
    ContentHash hash;
    hash.hi = extent.u64();
    hash.lo = extent.u64();
    if (length == 0 || length > kMaxExtentBytes ||
        pos + kExtentHeaderBytes + length > size_) {
      break;
    }
    payload.resize(length);
    if (!pread_exact(fd_, payload.data(), length, pos + kExtentHeaderBytes)) break;
    if (crc32c(payload) != crc) break;
    entries.push_back(ExtentEntry{hash, pos + kExtentHeaderBytes, length, crc});
    pos += kExtentHeaderBytes + length;
  }
  if (pos < size_) {
    if (::ftruncate(fd_, static_cast<off_t>(pos)) != 0) {
      return io_error("truncate torn segment tail");
    }
    size_ = pos;
  }
  return Status::ok();
}

Status SegmentFile::append(std::span<const std::uint8_t> payload, const ContentHash& hash,
                           std::uint32_t crc, std::uint64_t& offset) {
  if (sealed_) return Status::failed_precondition("segment is sealed");
  wire::Writer header;
  header.u32(kExtentMagic);
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u32(crc);
  header.u32(0);  // reserved
  header.u64(hash.hi);
  header.u64(hash.lo);
  if (::lseek(fd_, static_cast<off_t>(size_), SEEK_SET) < 0) {
    return io_error("seek segment");
  }
  if (!write_all(fd_, header.span()) || !write_all(fd_, payload)) {
    return io_error("append extent");
  }
  offset = size_ + kExtentHeaderBytes;
  size_ += kExtentHeaderBytes + payload.size();
  return Status::ok();
}

Status SegmentFile::seal(std::span<const ExtentEntry> entries) {
  if (sealed_) return Status::ok();
  wire::Writer index;
  for (const ExtentEntry& e : entries) {
    index.u64(e.hash.hi);
    index.u64(e.hash.lo);
    index.u64(e.offset);
    index.u32(e.length);
    index.u32(e.crc);
  }
  wire::Writer trailer;
  trailer.u64(size_);  // index_offset
  trailer.u32(static_cast<std::uint32_t>(entries.size()));
  trailer.u32(crc32c(index.span()));
  trailer.u32(kFormatVersion);
  trailer.u32(kFooterMagic);
  if (::lseek(fd_, static_cast<off_t>(size_), SEEK_SET) < 0) {
    return io_error("seek segment");
  }
  if (!write_all(fd_, index.span()) || !write_all(fd_, trailer.span())) {
    return io_error("write segment footer");
  }
  size_ += index.size() + trailer.size();
  if (::fsync(fd_) != 0) return io_error("fsync sealed segment");
  sealed_ = true;
  return Status::ok();
}

Status SegmentFile::sync() {
  if (::fsync(fd_) != 0) return io_error("fsync segment");
  return Status::ok();
}

std::span<const std::uint8_t> SegmentFile::payload(std::uint64_t offset,
                                                   std::uint32_t length) const {
  if (offset + length > size_) return {};
  if (!map_at_least(offset + length).is_ok()) return {};
  return {static_cast<const std::uint8_t*>(map_) + offset, length};
}

std::string BlockStore::segment_path(std::uint32_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "segment-%06u.seg", id);
  return dir_ + "/" + name;
}

Status BlockStore::open(const std::string& dir, const Options& options) {
  dir_ = dir;
  options_ = options;
  segments_.clear();
  index_.clear();
  active_id_ = 0;
  next_id_ = 1;

  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned id = 0;
    if (std::sscanf(name.c_str(), "segment-%06u.seg", &id) != 1) continue;
    // Every parsed id advances the allocator — including ids whose file
    // fails to open below — so a later rotate() can never reuse the id
    // and O_TRUNC a file that was left in place for inspection.
    next_id_ = std::max(next_id_, id + 1);
    Segment seg;
    seg.file = std::make_unique<SegmentFile>();
    std::vector<SegmentFile::ExtentEntry> entries;
    const Status s = seg.file->open(entry.path().string(), id, entries);
    if (!s.is_ok()) {
      // Unreadable container: leave the file in place for inspection,
      // reference nothing in it (refs into it will fail add_ref and
      // truncate the WAL there).
      continue;
    }
    for (const SegmentFile::ExtentEntry& e : entries) {
      index_.emplace(e.hash, Extent{ExtentRef{id, e.offset, e.length, e.crc, e.hash}, 0});
    }
    seg.entries = std::move(entries);
    segments_.emplace(id, std::move(seg));
  }
  if (ec) return Status::internal("cannot list segment directory");
  // Segments recovered without a footer get one now (their torn tails
  // were truncated on open), so the next open is O(1) everywhere.
  for (auto& [id, seg] : segments_) {
    if (!seg.file->sealed()) {
      const Status s = seg.file->seal(seg.entries);
      if (!s.is_ok()) return s;
    }
  }
  open_ = true;
  return Status::ok();
}

Status BlockStore::close() {
  if (!open_) return Status::ok();
  Status result = Status::ok();
  if (SegmentFile* active = segment(active_id_); active != nullptr && !active->sealed()) {
    const Status s = active->seal(segments_.at(active_id_).entries);
    if (!s.is_ok()) result = s;
  }
  segments_.clear();
  index_.clear();
  active_id_ = 0;
  open_ = false;
  return result;
}

SegmentFile* BlockStore::segment(std::uint32_t id) {
  const auto it = segments_.find(id);
  return it == segments_.end() ? nullptr : it->second.file.get();
}

Status BlockStore::rotate() {
  if (SegmentFile* active = segment(active_id_); active != nullptr) {
    const Status s = active->seal(segments_.at(active_id_).entries);
    if (!s.is_ok()) return s;
  }
  const std::uint32_t id = next_id_++;
  Segment seg;
  seg.file = std::make_unique<SegmentFile>();
  const Status s = seg.file->create(segment_path(id), id);
  if (!s.is_ok()) return s;
  segments_.emplace(id, std::move(seg));
  active_id_ = id;
  return Status::ok();
}

Status BlockStore::append(std::span<const std::uint8_t> payload, ExtentRef& ref,
                          bool& dedup_hit) {
  dedup_hit = false;
  const ContentHash hash = content_hash(payload);
  // Content address lookup; a hash hit must also match byte-for-byte
  // (collisions chain in the multimap and cost one compare, never
  // corruption).
  auto [lo, hi] = index_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    Extent& extent = it->second;
    SegmentFile* file = segment(extent.ref.segment_id);
    if (file == nullptr || extent.ref.length != payload.size()) continue;
    const auto existing = file->payload(extent.ref.offset, extent.ref.length);
    if (existing.size() != payload.size() ||
        !std::equal(payload.begin(), payload.end(), existing.begin())) {
      continue;
    }
    if (extent.refs == 0) {
      // Reviving a dead extent whose file is still on disk.
      ++segments_.at(extent.ref.segment_id).live_extents;
    }
    ++extent.refs;
    ++stats_.dedup_hits;
    if (dedup_metric_ != nullptr) dedup_metric_->inc();
    ref = extent.ref;
    dedup_hit = true;
    return Status::ok();
  }

  SegmentFile* active = segment(active_id_);
  if (active == nullptr || active->sealed() ||
      active->size() >= options_.rotate_bytes) {
    const Status s = rotate();
    if (!s.is_ok()) return s;
    active = segment(active_id_);
  }
  const std::uint32_t crc = crc32c(payload);
  std::uint64_t offset = 0;
  const Status s = active->append(payload, hash, crc, offset);
  if (!s.is_ok()) return s;
  ref = ExtentRef{active_id_, offset, static_cast<std::uint32_t>(payload.size()), crc, hash};
  index_.emplace(hash, Extent{ref, 1});
  Segment& seg = segments_.at(active_id_);
  ++seg.live_extents;
  seg.entries.push_back(SegmentFile::ExtentEntry{hash, offset, ref.length, crc});
  ++stats_.extents_appended;
  return Status::ok();
}

Status BlockStore::add_ref(const ExtentRef& ref) {
  auto [lo, hi] = index_.equal_range(ref.hash);
  for (auto it = lo; it != hi; ++it) {
    Extent& extent = it->second;
    if (extent.ref != ref) continue;
    if (extent.refs == 0) ++segments_.at(ref.segment_id).live_extents;
    ++extent.refs;
    return Status::ok();
  }
  return Status::internal("extent reference resolves to no known extent");
}

void BlockStore::clear_refs() {
  for (auto& [hash, extent] : index_) extent.refs = 0;
  for (auto& [id, seg] : segments_) seg.live_extents = 0;
}

void BlockStore::release(const ExtentRef& ref) {
  auto [lo, hi] = index_.equal_range(ref.hash);
  for (auto it = lo; it != hi; ++it) {
    Extent& extent = it->second;
    if (extent.ref != ref || extent.refs == 0) continue;
    // A segment whose last live extent dies is NOT unlinked here: the
    // current WAL (its leading checkpoint, or replayed seal frames) may
    // still reference its extents, and a crash before the next durable
    // checkpoint would make recovery fail add_ref against a missing
    // file and reject the only WAL.  The file stays on disk — its dead
    // extents remain dedup-revivable — until gc_dead_segments() runs
    // behind a fresh durable checkpoint.
    if (--extent.refs == 0) {
      if (const auto seg_it = segments_.find(ref.segment_id); seg_it != segments_.end()) {
        --seg_it->second.live_extents;
      }
    }
    return;
  }
}

bool BlockStore::has_dead_segments() const {
  for (const auto& [id, seg] : segments_) {
    if (seg.live_extents == 0 && seg.file->sealed() && id != active_id_) return true;
  }
  return false;
}

Status BlockStore::load(const ExtentRef& ref, std::vector<std::uint8_t>& payload) {
  const std::scoped_lock lock(load_mutex_);
  ++stats_.loads;
  if (cold_loads_metric_ != nullptr) cold_loads_metric_->inc();
  SegmentFile* file = segment(ref.segment_id);
  if (file == nullptr) {
    ++stats_.load_failures;
    if (quarantined_metric_ != nullptr) quarantined_metric_->inc();
    return Status::internal("extent references an unknown segment");
  }
  const auto bytes = file->payload(ref.offset, ref.length);
  if (bytes.size() != ref.length || crc32c(bytes) != ref.crc) {
    ++stats_.load_failures;
    if (quarantined_metric_ != nullptr) quarantined_metric_->inc();
    return Status::internal("extent payload failed its checksum");
  }
  payload.assign(bytes.begin(), bytes.end());
  return Status::ok();
}

void BlockStore::note_decode_failure() {
  const std::scoped_lock lock(load_mutex_);
  ++stats_.load_failures;
  if (quarantined_metric_ != nullptr) quarantined_metric_->inc();
}

void BlockStore::gc_dead_segments() {
  for (auto it = segments_.begin(); it != segments_.end();) {
    const auto current = it++;
    Segment& seg = current->second;
    if (seg.live_extents == 0 && seg.file->sealed() && current->first != active_id_) {
      const std::string path = seg.file->path();
      const std::uint32_t id = current->first;
      for (auto ix = index_.begin(); ix != index_.end();) {
        ix = ix->second.ref.segment_id == id ? index_.erase(ix) : std::next(ix);
      }
      segments_.erase(current);
      ::unlink(path.c_str());
      sync_parent_dir(path);
      ++stats_.segments_deleted;
    }
  }
}

Status BlockStore::sync() {
  if (SegmentFile* active = segment(active_id_); active != nullptr && !active->sealed()) {
    return active->sync();
  }
  return Status::ok();
}

std::uint64_t BlockStore::disk_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [id, seg] : segments_) bytes += seg.file->size();
  return bytes;
}

}  // namespace envmon::tsdb

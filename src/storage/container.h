// Container: the 4 MiB on-disk unit that holds chunk contents (paper §2.1,
// Figure 6).
//
// A container carries its ID, the used data size, and a fingerprint table
// mapping each stored chunk to its offset/length — exactly the structure the
// paper draws: restore reads whole containers and then picks chunks out of
// them via this table. Containers are the unit of disk I/O everywhere in
// this codebase; all restore-performance metrics count container reads.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/chunk.h"
#include "common/fingerprint.h"
#include "common/units.h"

namespace hds {

// Signed on purpose: recipes reuse the container-ID field to encode the
// three location kinds of §4.3 (positive = archival container, zero =
// active containers, negative = "look in recipe |CID|").
using ContainerId = std::int32_t;

inline constexpr ContainerId kCidActive = 0;

struct ContainerEntry {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
  // CRC-32 of the chunk payload, computed at add() time and checked once
  // when the payload comes off the medium (deserialize()) — corruption is
  // caught before the container is served. 0 for metadata-only
  // (virtual) chunks, which carry no payload.
  std::uint32_t crc = 0;
};

// Process-wide count of chunk payloads that failed their recorded CRC as
// they came off the medium (mirrored into each system's metrics registry as
// `io_crc_failures`). Monotonic; never reset.
[[nodiscard]] std::uint64_t chunk_crc_failures() noexcept;

class Container {
 public:
  explicit Container(ContainerId id = kCidActive,
                     std::size_t capacity = kDefaultContainerSize)
      : id_(id), capacity_(capacity) {
    data_.reserve(0);  // grown on demand; capacity_ bounds used bytes
  }

  [[nodiscard]] ContainerId id() const noexcept { return id_; }
  void set_id(ContainerId id) noexcept { id_ = id; }

  // True if a chunk of `size` bytes still fits (contiguously at the tail).
  [[nodiscard]] bool fits(std::size_t size) const noexcept {
    return data_size() + size <= capacity_;
  }

  // Adds a chunk; returns false when it does not fit or the fingerprint is
  // already present (containers never hold duplicates).
  bool add(const Fingerprint& fp, std::span<const std::uint8_t> bytes);

  // Adds a chunk whose payload CRC-32 is already known — the batched
  // eviction/compaction paths stage CRC-verified spans straight out of
  // another container's entry table without recomputing the checksum.
  bool add_with_crc(const Fingerprint& fp, std::span<const std::uint8_t> bytes,
                    std::uint32_t crc);

  // Adds a chunk without materialized bytes (trace/simulated mode): space is
  // fully accounted but no payload is allocated; read() serves such chunks
  // from a shared zero page. Keeps metadata-only experiments allocation-free
  // while every size/offset/I-O count stays identical to real mode.
  bool add_meta(const Fingerprint& fp, std::uint32_t size);

  [[nodiscard]] bool contains(const Fingerprint& fp) const noexcept {
    return entries_.contains(fp);
  }

  // Returns the chunk bytes, or nullopt if absent. No CRC: every payload
  // was checked when it was loaded (deserialize()) or checksummed from the
  // bytes it was added with. -DHDS_VERIFY builds
  // re-check it here as an invariant, so in-memory damage still trips.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> read(
      const Fingerprint& fp) const noexcept;

  // fsck support: recomputes every stored payload's CRC against its entry.
  // Returns the fingerprints that fail; does not touch the failure counter.
  [[nodiscard]] std::vector<Fingerprint> corrupt_chunks() const;

  [[nodiscard]] std::optional<ContainerEntry> find(
      const Fingerprint& fp) const noexcept;

  // Logically removes a chunk. The freed bytes are NOT reusable until
  // compaction (paper Figure 6: variable-size holes cannot be refilled) —
  // used_bytes() drops but data_size() stays, modeling the hole.
  bool remove(const Fingerprint& fp);

  // Rewrites the container in place, squeezing out removed chunks.
  void compact();

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  // Tail position: bytes consumed in the container, holes and virtual
  // (metadata-only) payloads included.
  [[nodiscard]] std::size_t data_size() const noexcept {
    return data_.size() + virtual_bytes_;
  }
  // Live bytes: sum of sizes of chunks still present.
  [[nodiscard]] std::size_t used_bytes() const noexcept { return used_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return entries_.size();
  }
  // Paper's container utilization: live bytes / capacity.
  [[nodiscard]] double utilization() const noexcept {
    return static_cast<double>(used_) / static_cast<double>(capacity_);
  }

  [[nodiscard]] const std::unordered_map<Fingerprint, ContainerEntry>&
  entries() const noexcept {
    return entries_;
  }

  // --- On-disk layout ---
  // Format 3 ("HDSF"): header(20) | chunk data | entry table (32 B/chunk) |
  // footer CRC | seal. The header keeps the format-2 field offsets
  // (chunk count at byte 12, data size at byte 16), but the entry table
  // — with the header, the *footer index* — sits behind the data region.
  // The footer CRC covers header + table and the per-chunk CRCs cover every
  // live payload, so a load checks each byte it serves exactly once. The
  // seal (common/byte_io.h) also covers holes and is what fsck's verified
  // read checks (LoadCheck::kWholeFile); fsck's footer_index check parses the
  // table on its own (parse_footer). Format 2 ("HDSE": table before data,
  // then the seal) is still accepted by deserialize().
  static constexpr std::size_t kHeaderSize = 20;
  static constexpr std::size_t kEntrySize = 32;
  // Footer CRC + seal behind the entry table (format 3 only).
  static constexpr std::size_t kTrailerSize = 8;
  // Offset marker for metadata-only chunks (no stored payload).
  static constexpr std::uint32_t kVirtualOffset = 0xFFFFFFFFu;

  struct HeaderInfo {
    ContainerId id = 0;
    std::uint32_t capacity = 0;
    std::uint32_t count = 0;
    std::uint32_t data_size = 0;
    bool footer_indexed = false;  // true for format 3

    // Exact serialized size of a format-3 container with this header.
    [[nodiscard]] std::uint64_t expected_file_size() const noexcept {
      return kHeaderSize + std::uint64_t{data_size} +
             std::uint64_t{count} * kEntrySize + kTrailerSize;
    }
    // Byte offset of the entry table + footer CRC region (format 3).
    [[nodiscard]] std::uint64_t footer_offset() const noexcept {
      return kHeaderSize + std::uint64_t{data_size};
    }
    [[nodiscard]] std::uint64_t footer_size() const noexcept {
      return std::uint64_t{count} * kEntrySize + 4;
    }
  };

  // Parses the 20-byte fixed header shared by both formats; nullopt on a
  // short span or unknown magic. Performs no CRC validation.
  static std::optional<HeaderInfo> parse_header(
      std::span<const std::uint8_t> bytes);

  // Parses a format-3 footer index: `footer_bytes` is the entry table plus
  // its CRC word (header.footer_size() bytes at header.footer_offset()) and
  // `header_bytes` the same 20-byte prefix given to parse_header — the
  // footer CRC covers header + table, so header corruption is detected
  // without touching the data region. nullopt on CRC or framing mismatch.
  static std::optional<std::vector<std::pair<Fingerprint, ContainerEntry>>>
  parse_footer(std::span<const std::uint8_t> header_bytes,
               std::span<const std::uint8_t> footer_bytes);

  // Binary serialization (format 3, see layout above). Round-trips through
  // deserialize().
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  // Format-2 image (entry table before the data, no footer index) — kept so
  // compatibility tests can produce legacy containers.
  [[nodiscard]] std::vector<std::uint8_t> serialize_legacy() const;

  // Which CRC vouches for the bytes deserialize() loads (format 3; a
  // format-2 image is always checked against its seal).
  enum class LoadCheck : std::uint8_t {
    // Footer CRC plus each live payload's chunk CRC. A payload mismatch is
    // counted in chunk_crc_failures() and rejects the container. Every
    // load that serves data uses this.
    kPayloads,
    // Footer CRC plus the seal over the whole file; payloads are not
    // checked, so fsck can classify payload damage per chunk
    // (corrupt_chunks()) apart from framing damage.
    kWholeFile,
  };
  // Parses a serialized image; nullopt on any framing or CRC failure.
  static std::optional<Container> deserialize(
      std::span<const std::uint8_t> bytes,
      LoadCheck check = LoadCheck::kPayloads);

 private:
  ContainerId id_;
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t virtual_bytes_ = 0;  // space consumed by metadata-only chunks
  std::vector<std::uint8_t> data_;
  std::unordered_map<Fingerprint, ContainerEntry> entries_;
};

}  // namespace hds

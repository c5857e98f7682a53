#include "storage/container.h"

#include <atomic>
#include <cstring>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "verify/invariant.h"

namespace hds {

namespace {
// "HDSE": format 2 — entry table before the data, per-chunk CRC column.
constexpr std::uint32_t kMagicV2 = 0x48445345;
// "HDSF": format 3 — data first, entry table as a footer index (see the
// layout comment in container.h).
constexpr std::uint32_t kMagicV3 = 0x48445346;

std::atomic<std::uint64_t> g_chunk_crc_failures{0};
}  // namespace

std::uint64_t chunk_crc_failures() noexcept {
  return g_chunk_crc_failures.load(std::memory_order_relaxed);
}

namespace {

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}
}  // namespace

bool Container::add(const Fingerprint& fp,
                    std::span<const std::uint8_t> bytes) {
  return add_with_crc(fp, bytes, crc32(bytes));
}

bool Container::add_with_crc(const Fingerprint& fp,
                             std::span<const std::uint8_t> bytes,
                             std::uint32_t crc) {
  if (!fits(bytes.size()) || entries_.contains(fp)) return false;
  const ContainerEntry entry{static_cast<std::uint32_t>(data_.size()),
                             static_cast<std::uint32_t>(bytes.size()), crc};
  data_.insert(data_.end(), bytes.begin(), bytes.end());
  entries_.emplace(fp, entry);
  used_ += bytes.size();
  HDS_INVARIANT(data_size() <= capacity_);
  return true;
}

namespace {
// Shared zero page serving reads of metadata-only chunks; sized for the
// largest chunk any configuration produces.
std::span<const std::uint8_t> zero_page(std::uint32_t size) {
  static const std::vector<std::uint8_t> page(256 * 1024, 0);
  return {page.data(), std::min<std::size_t>(size, page.size())};
}
}  // namespace

bool Container::add_meta(const Fingerprint& fp, std::uint32_t size) {
  if (!fits(size) || entries_.contains(fp)) return false;
  entries_.emplace(fp, ContainerEntry{kVirtualOffset, size, 0});
  virtual_bytes_ += size;
  used_ += size;
  return true;
}

std::optional<std::span<const std::uint8_t>> Container::read(
    const Fingerprint& fp) const noexcept {
  const auto it = entries_.find(fp);
  if (it == entries_.end()) return std::nullopt;
  if (it->second.offset == kVirtualOffset) {
    return zero_page(it->second.size);
  }
  const std::span payload(data_.data() + it->second.offset, it->second.size);
  HDS_CHECK(crc32(payload) == it->second.crc,
            "loaded payload no longer matches its chunk CRC");
  return payload;
}

std::vector<Fingerprint> Container::corrupt_chunks() const {
  std::vector<Fingerprint> bad;
  for (const auto& [fp, entry] : entries_) {
    if (entry.offset == kVirtualOffset) continue;
    const std::span payload(data_.data() + entry.offset, entry.size);
    if (crc32(payload) != entry.crc) bad.push_back(fp);
  }
  return bad;
}

std::optional<ContainerEntry> Container::find(
    const Fingerprint& fp) const noexcept {
  const auto it = entries_.find(fp);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool Container::remove(const Fingerprint& fp) {
  const auto it = entries_.find(fp);
  if (it == entries_.end()) return false;
  used_ -= it->second.size;
  entries_.erase(it);
  return true;
}

void Container::compact() {
  std::vector<std::uint8_t> packed;
  packed.reserve(used_);
  std::size_t live_virtual = 0;
  for (auto& [fp, entry] : entries_) {
    if (entry.offset == kVirtualOffset) {
      live_virtual += entry.size;
      continue;
    }
    const auto new_offset = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), data_.begin() + entry.offset,
                  data_.begin() + entry.offset + entry.size);
    entry.offset = new_offset;
  }
  data_ = std::move(packed);
  virtual_bytes_ = live_virtual;
}

std::vector<std::uint8_t> Container::serialize() const {
  ByteWriter out;
  out.reserve(kHeaderSize + data_.size() + entries_.size() * kEntrySize +
              kTrailerSize);
  out.u32(kMagicV3);
  out.u32(static_cast<std::uint32_t>(id_));
  out.u32(static_cast<std::uint32_t>(capacity_));
  out.u32(static_cast<std::uint32_t>(entries_.size()));
  out.u32(static_cast<std::uint32_t>(data_.size()));
  out.raw(data_);
  const std::size_t table_at = out.bytes().size();
  for (const auto& [fp, entry] : entries_) {
    out.raw(fp.bytes);
    out.u32(entry.offset);
    out.u32(entry.size);
    out.u32(entry.crc);
  }
  // Footer CRC over header + table (skipping the data region in between),
  // so the index validates without touching payloads.
  const auto written = std::span(out.bytes());
  out.u32(crc32(written.subspan(table_at), crc32(written.first(kHeaderSize))));
  out.seal();
  return out.take();
}

std::vector<std::uint8_t> Container::serialize_legacy() const {
  ByteWriter out;
  out.reserve(data_.size() + entries_.size() * kEntrySize + 64);
  out.u32(kMagicV2);
  out.u32(static_cast<std::uint32_t>(id_));
  out.u32(static_cast<std::uint32_t>(capacity_));
  out.u32(static_cast<std::uint32_t>(entries_.size()));
  out.u32(static_cast<std::uint32_t>(data_.size()));
  for (const auto& [fp, entry] : entries_) {
    out.raw(fp.bytes);
    out.u32(entry.offset);
    out.u32(entry.size);
    out.u32(entry.crc);
  }
  out.raw(data_);
  out.seal();
  return out.take();
}

std::optional<Container::HeaderInfo> Container::parse_header(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  const std::uint32_t magic = get_u32(bytes.data());
  if (magic != kMagicV2 && magic != kMagicV3) return std::nullopt;
  HeaderInfo info;
  info.id = static_cast<ContainerId>(get_u32(bytes.data() + 4));
  info.capacity = get_u32(bytes.data() + 8);
  info.count = get_u32(bytes.data() + 12);
  info.data_size = get_u32(bytes.data() + 16);
  info.footer_indexed = magic == kMagicV3;
  return info;
}

std::optional<std::vector<std::pair<Fingerprint, ContainerEntry>>>
Container::parse_footer(std::span<const std::uint8_t> header_bytes,
                        std::span<const std::uint8_t> footer_bytes) {
  const auto header = parse_header(header_bytes);
  if (!header || !header->footer_indexed) return std::nullopt;
  if (footer_bytes.size() != header->footer_size()) return std::nullopt;
  const std::size_t table_bytes = footer_bytes.size() - 4;
  const std::uint32_t stored = get_u32(footer_bytes.data() + table_bytes);
  if (crc32(footer_bytes.data(), table_bytes,
            crc32(header_bytes.data(), kHeaderSize)) != stored) {
    return std::nullopt;
  }
  std::vector<std::pair<Fingerprint, ContainerEntry>> entries;
  entries.reserve(header->count);
  const std::uint8_t* p = footer_bytes.data();
  for (std::uint32_t i = 0; i < header->count; ++i) {
    Fingerprint fp;
    std::memcpy(fp.bytes.data(), p, kFingerprintSize);
    p += kFingerprintSize;
    ContainerEntry entry{get_u32(p), get_u32(p + 4), get_u32(p + 8)};
    p += 12;
    if (entry.offset != kVirtualOffset &&
        std::uint64_t{entry.offset} + entry.size > header->data_size) {
      return std::nullopt;
    }
    entries.emplace_back(fp, entry);
  }
  return entries;
}

std::optional<Container> Container::deserialize(
    std::span<const std::uint8_t> bytes, LoadCheck check) {
  if (bytes.size() < kHeaderSize + 4) return std::nullopt;
  const auto header = parse_header(bytes);
  if (!header) return std::nullopt;
  const bool whole_file = check == LoadCheck::kWholeFile ||
                          !header->footer_indexed;
  if (whole_file && !unseal(bytes)) return std::nullopt;

  const std::size_t table_bytes = std::size_t{header->count} * kEntrySize;
  const std::uint8_t* table = nullptr;
  const std::uint8_t* data = nullptr;
  if (header->footer_indexed) {
    if (bytes.size() != header->expected_file_size()) return std::nullopt;
    data = bytes.data() + kHeaderSize;
    table = data + header->data_size;
    // The footer CRC vouches for header + table; under kWholeFile it is
    // redundant but checked anyway so the two can never silently disagree.
    const std::uint32_t footer_crc = get_u32(table + table_bytes);
    if (crc32(table, table_bytes, crc32(bytes.data(), kHeaderSize)) !=
        footer_crc) {
      return std::nullopt;
    }
  } else {
    if (bytes.size() != kHeaderSize + table_bytes + header->data_size + 4) {
      return std::nullopt;
    }
    table = bytes.data() + kHeaderSize;
    data = table + table_bytes;
  }

  Container c(header->id, header->capacity);
  c.data_.assign(data, data + header->data_size);
  const std::uint8_t* p = table;
  for (std::uint32_t i = 0; i < header->count; ++i) {
    Fingerprint fp;
    std::memcpy(fp.bytes.data(), p, kFingerprintSize);
    p += kFingerprintSize;
    ContainerEntry entry{get_u32(p), get_u32(p + 4), get_u32(p + 8)};
    p += 12;
    if (entry.offset == kVirtualOffset) {
      c.virtual_bytes_ += entry.size;
    } else if (std::size_t{entry.offset} + entry.size > c.data_.size()) {
      return std::nullopt;
    } else if (!whole_file &&
               crc32(c.data_.data() + entry.offset, entry.size) !=
                   entry.crc) {
      // The one check this payload gets while it stays loaded.
      g_chunk_crc_failures.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    c.entries_.emplace(fp, entry);
    c.used_ += entry.size;
  }
  return c;
}

}  // namespace hds

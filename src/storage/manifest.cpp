#include "storage/manifest.h"

#include <system_error>

#include "common/byte_io.h"
#include "storage/durable.h"

namespace hds {

namespace {
constexpr std::uint32_t kManifestMagic = 0x4844534D;  // "HDSM"
constexpr std::uint32_t kManifestFormat = 1;
}  // namespace

void Manifest::append(const CommitRecord& record) {
  records.push_back(record);
  if (records.size() > kMaxRecords) {
    records.erase(records.begin(),
                  records.begin() +
                      static_cast<std::ptrdiff_t>(records.size() -
                                                  kMaxRecords));
  }
}

std::vector<std::uint8_t> Manifest::serialize() const {
  ByteWriter writer;
  writer.u32(kManifestMagic);
  writer.u32(kManifestFormat);
  writer.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& r : records) {
    writer.u64(r.epoch);
    writer.u32(r.next_version);
    writer.u32(r.oldest_version);
    writer.u32(static_cast<std::uint32_t>(r.store_next));
    writer.u64(r.state_size);
    writer.u32(r.state_crc);
  }
  writer.seal();
  return writer.take();
}

std::optional<Manifest> Manifest::deserialize(
    std::span<const std::uint8_t> bytes) {
  const auto body = unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader reader(*body);
  std::uint32_t magic, format, count;
  if (!reader.u32(magic) || magic != kManifestMagic) return std::nullopt;
  if (!reader.u32(format) || format != kManifestFormat) return std::nullopt;
  if (!reader.u32(count)) return std::nullopt;

  Manifest manifest;
  manifest.records.reserve(count);
  std::uint64_t prev_epoch = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    CommitRecord r;
    std::uint32_t store_next;
    if (!reader.u64(r.epoch) || !reader.u32(r.next_version) ||
        !reader.u32(r.oldest_version) || !reader.u32(store_next) ||
        !reader.u64(r.state_size) || !reader.u32(r.state_crc)) {
      return std::nullopt;
    }
    r.store_next = static_cast<ContainerId>(store_next);
    if (r.epoch == 0 || r.epoch <= prev_epoch) return std::nullopt;
    prev_epoch = r.epoch;
    manifest.records.push_back(r);
  }
  if (!reader.exhausted()) return std::nullopt;
  return manifest;
}

ManifestStatus load_manifest(const std::filesystem::path& dir,
                             Manifest& out) {
  out.records.clear();
  const auto path = dir / Manifest::kFileName;
  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec);
  if (!ec && !exists) return ManifestStatus::kMissing;
  const auto bytes = durable::read_file(path);
  if (!bytes) return ManifestStatus::kIoError;
  auto manifest = Manifest::deserialize(*bytes);
  if (!manifest) return ManifestStatus::kCorrupt;
  out = std::move(*manifest);
  return ManifestStatus::kOk;
}

void store_manifest(const std::filesystem::path& dir,
                    const Manifest& manifest) {
  durable::atomic_write_file(dir / Manifest::kFileName,
                             manifest.serialize());
}

}  // namespace hds

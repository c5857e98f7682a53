#include "backup/catalog.h"

#include <algorithm>

#include "common/byte_io.h"

namespace hds {

namespace {
constexpr std::uint32_t kMagic = 0x48445343 + 1;  // "HDSC"+1: catalog
}

void FileCatalog::add_version(VersionId version,
                              std::vector<CatalogEntry> files) {
  versions_.insert_or_assign(version, std::move(files));
}

bool FileCatalog::erase_version(VersionId version) {
  return versions_.erase(version) > 0;
}

std::vector<VersionId> FileCatalog::versions() const {
  std::vector<VersionId> out;
  out.reserve(versions_.size());
  for (const auto& [version, files] : versions_) out.push_back(version);
  std::sort(out.begin(), out.end());
  return out;
}

const std::vector<CatalogEntry>* FileCatalog::files(
    VersionId version) const noexcept {
  const auto it = versions_.find(version);
  return it == versions_.end() ? nullptr : &it->second;
}

std::optional<CatalogEntry> FileCatalog::find(VersionId version,
                                              std::string_view path) const {
  const auto* list = files(version);
  if (list == nullptr) return std::nullopt;
  const auto it = std::find_if(
      list->begin(), list->end(),
      [&](const CatalogEntry& e) { return e.path == path; });
  if (it == list->end()) return std::nullopt;
  return *it;
}

std::vector<std::uint8_t> FileCatalog::serialize() const {
  ByteWriter writer;
  writer.u32(kMagic);
  // Versions in ascending order for deterministic output.
  std::vector<VersionId> versions;
  versions.reserve(versions_.size());
  for (const auto& [v, _] : versions_) versions.push_back(v);
  std::sort(versions.begin(), versions.end());

  writer.u32(static_cast<std::uint32_t>(versions.size()));
  for (const VersionId v : versions) {
    const auto& files = versions_.at(v);
    writer.u32(v);
    writer.u32(static_cast<std::uint32_t>(files.size()));
    for (const auto& entry : files) {
      writer.blob(std::span(
          reinterpret_cast<const std::uint8_t*>(entry.path.data()),
          entry.path.size()));
      writer.u64(entry.offset);
      writer.u64(entry.length);
    }
  }
  writer.seal();
  return writer.take();
}

std::optional<FileCatalog> FileCatalog::deserialize(
    std::span<const std::uint8_t> bytes) {
  const auto body = unseal(bytes);
  if (!body) return std::nullopt;
  ByteReader reader(*body);
  std::uint32_t magic, version_count;
  if (!reader.u32(magic) || magic != kMagic) return std::nullopt;
  if (!reader.u32(version_count)) return std::nullopt;

  FileCatalog catalog;
  for (std::uint32_t i = 0; i < version_count; ++i) {
    std::uint32_t version, file_count;
    if (!reader.u32(version) || !reader.u32(file_count)) return std::nullopt;
    std::vector<CatalogEntry> files;
    files.reserve(file_count);
    for (std::uint32_t f = 0; f < file_count; ++f) {
      CatalogEntry entry;
      std::vector<std::uint8_t> path_bytes;
      if (!reader.blob(path_bytes) || !reader.u64(entry.offset) ||
          !reader.u64(entry.length)) {
        return std::nullopt;
      }
      entry.path.assign(path_bytes.begin(), path_bytes.end());
      files.push_back(std::move(entry));
    }
    catalog.versions_.emplace(version, std::move(files));
  }
  if (!reader.exhausted()) return std::nullopt;
  return catalog;
}

}  // namespace hds

#include "storage/recipe.h"

#include <algorithm>

#include "common/byte_io.h"

namespace hds {

namespace {
constexpr std::uint32_t kMagic = 0x48445352;  // "HDSR"
constexpr std::size_t kHeaderSize = 12;
}  // namespace

std::vector<std::uint8_t> Recipe::serialize() const {
  ByteWriter writer;
  writer.reserve(kHeaderSize + entries_.size() * kRecipeEntrySize +
                 kSealSize);
  writer.u32(kMagic);
  writer.u32(version_);
  writer.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& e : entries_) {
    writer.raw(e.fp.bytes);
    writer.u32(static_cast<std::uint32_t>(e.cid));
    writer.u32(e.size);
  }
  writer.seal();
  return writer.take();
}

std::optional<Recipe> Recipe::deserialize(std::span<const std::uint8_t> b) {
  const auto body = unseal(b);
  if (!body) return std::nullopt;
  ByteReader reader(*body);
  std::uint32_t magic = 0, version = 0, count = 0;
  if (!reader.u32(magic) || magic != kMagic || !reader.u32(version) ||
      !reader.u32(count) ||
      body->size() != kHeaderSize + std::size_t{count} * kRecipeEntrySize) {
    return std::nullopt;
  }
  Recipe r(version);
  r.entries_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Fingerprint fp;
    std::uint32_t cid = 0, size = 0;
    reader.raw(fp.bytes);
    reader.u32(cid);
    reader.u32(size);
    r.add(fp, static_cast<ContainerId>(cid), size);
  }
  return r;
}

void RecipeStore::put(Recipe recipe) {
  const VersionId v = recipe.version();
  recipes_.insert_or_assign(v, std::move(recipe));
}

Recipe* RecipeStore::get(VersionId version) noexcept {
  const auto it = recipes_.find(version);
  return it == recipes_.end() ? nullptr : &it->second;
}

const Recipe* RecipeStore::get(VersionId version) const noexcept {
  const auto it = recipes_.find(version);
  return it == recipes_.end() ? nullptr : &it->second;
}

bool RecipeStore::erase(VersionId version) {
  return recipes_.erase(version) > 0;
}

std::vector<VersionId> RecipeStore::versions() const {
  std::vector<VersionId> out;
  out.reserve(recipes_.size());
  for (const auto& [v, _] : recipes_) out.push_back(v);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hds

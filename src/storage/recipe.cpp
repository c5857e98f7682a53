#include "storage/recipe.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"

namespace hds {

namespace {
constexpr std::uint32_t kMagic = 0x48445352;  // "HDSR"

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}
}  // namespace

std::vector<std::uint8_t> Recipe::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(16 + entries_.size() * kRecipeEntrySize);
  put_u32(out, kMagic);
  put_u32(out, version_);
  put_u32(out, static_cast<std::uint32_t>(entries_.size()));
  for (const auto& e : entries_) {
    out.insert(out.end(), e.fp.bytes.begin(), e.fp.bytes.end());
    put_u32(out, static_cast<std::uint32_t>(e.cid));
    put_u32(out, e.size);
  }
  put_u32(out, crc32(out.data(), out.size()));
  return out;
}

std::optional<Recipe> Recipe::deserialize(std::span<const std::uint8_t> b) {
  if (b.size() < 16) return std::nullopt;
  if (crc32(b.data(), b.size() - 4) != get_u32(b.data() + b.size() - 4)) {
    return std::nullopt;
  }
  if (get_u32(b.data()) != kMagic) return std::nullopt;
  const VersionId version = get_u32(b.data() + 4);
  const std::uint32_t count = get_u32(b.data() + 8);
  if (b.size() != 12 + std::size_t{count} * kRecipeEntrySize + 4) {
    return std::nullopt;
  }
  Recipe r(version);
  r.entries_.reserve(count);
  const std::uint8_t* p = b.data() + 12;
  for (std::uint32_t i = 0; i < count; ++i) {
    Fingerprint fp;
    std::memcpy(fp.bytes.data(), p, kFingerprintSize);
    r.add(fp, static_cast<ContainerId>(get_u32(p + kFingerprintSize)),
          get_u32(p + kFingerprintSize + 4));
    p += kRecipeEntrySize;
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

// Recipe: the ordered chunk list that reconstructs one backup version
// (paper §2.1). Each 28-byte entry is (fingerprint, container ID, size).
//
// HiDeStore (§4.3) overloads the container-ID field with three meanings:
//   cid > 0  — chunk lives in archival container `cid`;
//   cid == 0 — chunk lives in the active containers (resolve through the
//              fingerprint cache / active pool index);
//   cid < 0  — chunk moved on; look it up in recipe |cid| (recipe chain).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.h"
#include "storage/container.h"

namespace hds {

using VersionId = std::uint32_t;

struct RecipeEntry {
  Fingerprint fp;
  ContainerId cid = kCidActive;
  std::uint32_t size = 0;
};

class Recipe {
 public:
  Recipe() = default;
  explicit Recipe(VersionId version) : version_(version) {}

  [[nodiscard]] VersionId version() const noexcept { return version_; }

  void add(const Fingerprint& fp, ContainerId cid, std::uint32_t size) {
    entries_.push_back({fp, cid, size});
    logical_bytes_ += size;
  }

  // Mutable view for the cid rewrites (§4.3 recipe chain, gc remap).
  // Entries cannot be added or removed through it, and sizes are fixed
  // once added, so logical_bytes() stays the sum of entry sizes.
  [[nodiscard]] std::span<RecipeEntry> entries() noexcept { return entries_; }
  [[nodiscard]] const std::vector<RecipeEntry>& entries() const noexcept {
    return entries_;
  }

  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return entries_.size();
  }
  // O(1): kept as a running total by add() and deserialize().
  [[nodiscard]] std::uint64_t logical_bytes() const noexcept {
    return logical_bytes_;
  }
  // On-disk footprint: 28 bytes per entry (paper §2.1).
  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return entries_.size() * kRecipeEntrySize;
  }

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<Recipe> deserialize(std::span<const std::uint8_t> b);

 private:
  VersionId version_ = 0;
  std::vector<RecipeEntry> entries_;
  std::uint64_t logical_bytes_ = 0;
};

// RecipeStore: in-memory catalog of recipes keyed by version. Recipes are
// small (28 B/chunk) and mutated by the recipe-chain update (§4.3), so they
// are kept as live objects; serialization covers persistence needs.
class RecipeStore {
 public:
  void put(Recipe recipe);
  [[nodiscard]] Recipe* get(VersionId version) noexcept;
  [[nodiscard]] const Recipe* get(VersionId version) const noexcept;
  bool erase(VersionId version);

  [[nodiscard]] std::size_t size() const noexcept { return recipes_.size(); }
  [[nodiscard]] std::vector<VersionId> versions() const;

 private:
  std::unordered_map<VersionId, Recipe> recipes_;
};

}  // namespace hds

// Offline store checker ("hds_tool fsck") — walks every container, recipe
// and the catalog of a HiDeStore repository and validates the full
// invariant catalog the paper implies (DESIGN.md §8):
//
//   container_framing   archival containers deserialize, carry the right ID,
//                       and every entry extent lies inside the data region;
//   deletion_tags       archival IDs and §4.5 deletion tags are a bijection;
//   chunk_crc           every stored payload matches its per-chunk CRC-32;
//   recipe_resolution   archival CIDs (>0) resolve to a container that holds
//                       the fingerprint at the recorded size (§4.3);
//   recipe_chain        chain CIDs (<0) point forward in time at retained
//                       recipes, terminate, and never cycle (Algorithm 1);
//   active_resolution   active CIDs (==0) appear only in the newest `window`
//                       recipes and resolve through the pool index (§4.2);
//   class_exclusivity   no fingerprint is simultaneously hot (active pool)
//                       and cold (archival container) (§4.2);
//   pool_utilization    at most one active container sits below the merge
//                       threshold after compaction (Figure 6);
//   cache_consistency   the double-hash cache and the pool index agree
//                       exactly — same fingerprints, CIDs and sizes (§4.1);
//   accounting          dedup counters and repository gauges cross-check
//                       against the recomputed store state;
//   manifest_commit     the MANIFEST journal head agrees with the live
//                       system — same epoch and version window, and the
//                       committed state file it stamps exists byte-for-byte
//                       (persistent repositories only, §9);
//   orphan_containers   no archival container file on disk escapes the
//                       committed deletion tags or sits at/past the
//                       journal's container-ID watermark (persistent
//                       repositories only, §9);
//   footer_index        every format-3 container file's footer index is
//                       self-consistent: file size matches the header,
//                       the footer CRC validates, and no two entry extents
//                       overlap in the data region (persistent
//                       repositories only; format-2 files pass
//                       vacuously);
//   shard_id_namespace  every archival container id carries its owning
//                       shard in its high bits (src/index/shard_space.h):
//                       the ids a shard's deletion tags vouch for all fall
//                       inside that shard's band (§16; multi-shard
//                       repositories only, single-shard passes vacuously);
//   shard_exclusivity   every fingerprint resident in a shard (active pool
//                       index and recipe entries) routes to that shard
//                       under `fp.bytes[0] % N` — so no fingerprint can be
//                       resident in two shards (§16; multi-shard only).
//
// The report carries per-invariant pass/fail, object counts and the first
// offending objects, and renders as text or JSON.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hds {
class HiDeStore;
class ShardRouter;
}

namespace hds::verify {

enum class Invariant {
  kContainerFraming,
  kDeletionTags,
  kChunkCrc,
  kRecipeResolution,
  kRecipeChain,
  kActiveResolution,
  kClassExclusivity,
  kPoolUtilization,
  kCacheConsistency,
  kAccounting,
  kManifestCommit,
  kOrphanContainers,
  kFooterIndex,
  kShardIdNamespace,
  kShardExclusivity,
};

inline constexpr std::size_t kInvariantCount = 15;

[[nodiscard]] std::string_view invariant_name(Invariant invariant) noexcept;

struct FsckOptions {
  // Findings recorded per invariant; violations past the cap are still
  // counted, just not materialized.
  std::size_t max_findings = 16;
};

struct FsckFinding {
  Invariant invariant = Invariant::kContainerFraming;
  std::string object;  // e.g. "container 7", "recipe v3 entry 12"
  std::string detail;
};

struct FsckCheck {
  Invariant invariant = Invariant::kContainerFraming;
  std::uint64_t objects_checked = 0;
  std::uint64_t violations = 0;
  std::vector<FsckFinding> findings;  // first offenders, capped

  [[nodiscard]] bool passed() const noexcept { return violations == 0; }
};

struct FsckReport {
  // One entry per Invariant, in declaration order.
  std::vector<FsckCheck> checks;

  [[nodiscard]] const FsckCheck& check(Invariant invariant) const;
  [[nodiscard]] bool clean() const noexcept;
  [[nodiscard]] std::uint64_t total_violations() const noexcept;

  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_json() const;
};

// Runs every check against a live system. Non-const because walking the
// archival store issues (counted) container reads. Findings cascade-suppress:
// a container that already failed framing is not re-reported by the chunk
// CRC / resolution / exclusivity passes.
[[nodiscard]] FsckReport run_fsck(HiDeStore& system,
                                  const FsckOptions& options = {});

// Sharded repository checker: runs the full single-system catalog against
// every shard (findings prefixed "shard_<i>:", counts summed), then the
// cross-shard invariants. A single-shard router degrades to the plain
// HiDeStore checker with the shard invariants passing vacuously.
[[nodiscard]] FsckReport run_fsck(ShardRouter& router,
                                  const FsckOptions& options = {});

}  // namespace hds::verify

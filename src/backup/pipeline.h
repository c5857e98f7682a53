// DedupPipeline: the classic deduplication pipeline (Destor-style),
// parameterized by a fingerprint index and a rewriting filter.
//
// Per segment: index dedup → rewrite plan → store unique/rewritten chunks
// into sequentially filled containers → append recipe entries → feed the
// final locations back to index and rewriter. This one class, with its two
// plug points, realizes every baseline the paper compares against:
// DDFS(exact), Sparse, SiLo, SiLo+Capping, SiLo+ALACC-rewriting, SiLo+FBW.
#pragma once

#include <memory>

#include "backup/backup_system.h"
#include "index/fingerprint_index.h"
#include "rewrite/rewrite_filter.h"
#include "storage/container_store.h"

namespace hds {

struct PipelineConfig {
  std::size_t container_size = kDefaultContainerSize;
  // ≈ 2 MiB at 4 KiB chunks: scaled so a version spans several segments,
  // as the paper's 10 MB segments do on its ~400 MB versions.
  std::size_t segment_chunks = 512;
  // Store chunk payloads (true) or account sizes only (false). Metadata-only
  // mode keeps large parameter sweeps cheap; every I/O count is identical.
  bool materialize_contents = true;
};

class DedupPipeline final : public BackupSystem {
 public:
  DedupPipeline(std::string display_name,
                std::unique_ptr<FingerprintIndex> index,
                std::unique_ptr<RewriteFilter> rewriter,
                std::unique_ptr<ContainerStore> store,
                const PipelineConfig& config = {});

  BackupReport backup(const VersionStream& stream) override;
  RestoreReport restore(VersionId version, const ChunkSink& sink) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return display_name_;
  }

  // Restore under an explicit cache policy (Fig 11 runs the cross-product).
  RestoreReport restore_with(VersionId version, RestorePolicy& policy,
                             const ChunkSink& sink);

  // Partial restore of logical bytes [offset, offset+length).
  RestoreReport restore_range(VersionId version, std::uint64_t offset,
                              std::uint64_t length, RestorePolicy& policy,
                              const ChunkSink& sink);

  [[nodiscard]] const FingerprintIndex& index() const noexcept {
    return *index_;
  }
  [[nodiscard]] const RewriteFilter& rewriter() const noexcept {
    return *rewriter_;
  }
  [[nodiscard]] ContainerStore& store() noexcept { return *store_; }
  [[nodiscard]] const RecipeStore& recipes() const noexcept {
    return recipes_;
  }

  // Mutable access for maintenance passes (garbage collection rewrites
  // container layouts and must patch recipes and the index in step).
  [[nodiscard]] RecipeStore& mutable_recipes() noexcept { return recipes_; }
  [[nodiscard]] FingerprintIndex& mutable_index() noexcept { return *index_; }

 private:
  // Appends a chunk to the open container, sealing/rolling as needed.
  // Returns the container ID the chunk landed in.
  ContainerId store_chunk(const ChunkRecord& chunk);
  void seal_open_container();

  std::string display_name_;
  std::unique_ptr<FingerprintIndex> index_;
  std::unique_ptr<RewriteFilter> rewriter_;
  std::unique_ptr<ContainerStore> store_;
  PipelineConfig config_;

  RecipeStore recipes_;
  VersionId next_version_ = 1;

  Container open_;
  ContainerId open_id_ = 0;
  bool open_valid_ = false;
};

// Convenience: assemble the named baseline configurations of the paper.
enum class BaselineKind {
  kDdfs,          // exact dedup, no rewriting
  kSparse,        // sparse indexing, no rewriting
  kSilo,          // SiLo, no rewriting
  kSiloCapping,   // SiLo + capping rewriting (paper Fig 8)
  kSiloAlacc,     // SiLo + CBR-style rewriting as evaluated with ALACC
  kSiloFbw,       // SiLo + dynamic capping (FBW)
};

[[nodiscard]] std::unique_ptr<DedupPipeline> make_baseline(
    BaselineKind kind, const PipelineConfig& config = {});

}  // namespace hds

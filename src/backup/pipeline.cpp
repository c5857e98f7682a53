#include "backup/pipeline.h"

#include <stdexcept>
#include <unordered_map>

#include "common/stats.h"
#include "index/full_index.h"
#include "index/silo_index.h"
#include "index/sparse_index.h"
#include "restore/chunk_index.h"
#include "restore/faa.h"
#include "restore/partial.h"

namespace hds {

namespace {
// Bridges ChunkLoc fetches to the archival store. With a chunk index the
// store fetches only the fingerprints this restore needs from each
// container (footer-index partial reads); accounting is unchanged — a
// partial fetch still counts one container read of full logical size.
class StoreFetcher final : public ContainerFetcher {
 public:
  StoreFetcher(ContainerStore& store, const ContainerChunkIndex* needed)
      : store_(store), needed_(needed) {}
  std::shared_ptr<const Container> fetch(const ChunkLoc& loc) override {
    if (needed_ != nullptr) {
      if (const auto it = needed_->find(loc.cid); it != needed_->end()) {
        return store_.read_chunks(loc.cid, it->second);
      }
    }
    return store_.read(loc.cid);
  }

 private:
  ContainerStore& store_;
  const ContainerChunkIndex* needed_;  // const → shared by fill workers
};
}  // namespace

DedupPipeline::DedupPipeline(std::string display_name,
                             std::unique_ptr<FingerprintIndex> index,
                             std::unique_ptr<RewriteFilter> rewriter,
                             std::unique_ptr<ContainerStore> store,
                             const PipelineConfig& config)
    : display_name_(std::move(display_name)),
      index_(std::move(index)),
      rewriter_(std::move(rewriter)),
      store_(std::move(store)),
      config_(config) {}

ContainerId DedupPipeline::store_chunk(const ChunkRecord& chunk) {
  if (!open_valid_) {
    open_ = Container(store_->reserve_id(), config_.container_size);
    open_id_ = open_.id();
    open_valid_ = true;
  }
  if (!open_.fits(chunk.size)) {
    seal_open_container();
    open_ = Container(store_->reserve_id(), config_.container_size);
    open_id_ = open_.id();
    open_valid_ = true;
  }
  bool ok;
  if (!config_.materialize_contents) {
    ok = open_.add_meta(chunk.fp, chunk.size);
  } else if (chunk.data) {
    // Real bytes: copy straight out of the shared ingest buffer.
    ok = open_.add(chunk.fp, chunk.bytes());
  } else {
    const auto bytes = chunk.materialize();
    ok = open_.add(chunk.fp, bytes);
  }
  if (!ok) {
    // A freshly rolled container rejecting a chunk means the chunk exceeds
    // the container size — a configuration error that must not silently
    // drop data.
    throw std::invalid_argument(
        "DedupPipeline: chunk larger than the container size");
  }
  return open_id_;
}

void DedupPipeline::seal_open_container() {
  if (open_valid_ && open_.chunk_count() > 0) {
    store_->put(std::move(open_));
  }
  open_valid_ = false;
}

BackupReport DedupPipeline::backup(const VersionStream& stream) {
  Stopwatch timer;
  const VersionId version = next_version_++;
  const auto lookups_before = index_->stats().disk_lookups;

  index_->begin_version(version);
  rewriter_->begin_version(version);

  Recipe recipe(version);
  BackupReport report;
  report.version = version;

  // Locations of chunks already stored or referenced within this version:
  // exact intra-version dedup, including against the still-open container.
  std::unordered_map<Fingerprint, ContainerId> session;

  const auto& chunks = stream.chunks;
  for (std::size_t base = 0; base < chunks.size();
       base += config_.segment_chunks) {
    const std::size_t count =
        std::min(config_.segment_chunks, chunks.size() - base);
    const std::span segment(chunks.data() + base, count);

    auto locations = index_->dedup_segment(segment);
    const auto rewrites = rewriter_->plan(segment, locations);

    const std::size_t recipe_base = recipe.entries().size();
    for (std::size_t i = 0; i < count; ++i) {
      const auto& chunk = segment[i];
      report.logical_bytes += chunk.size;
      report.logical_chunks++;

      // Intra-version copies always deduplicate exactly, whatever the
      // index said (it may not have seen the pending containers yet).
      if (const auto it = session.find(chunk.fp); it != session.end()) {
        recipe.add(chunk.fp, it->second, chunk.size);
        continue;
      }

      const bool store_it = !locations[i] || rewrites[i];
      ContainerId cid;
      if (store_it) {
        cid = store_chunk(chunk);
        report.stored_bytes += chunk.size;
        report.stored_chunks++;
        if (locations[i]) {
          report.rewritten_bytes += chunk.size;
          report.rewritten_chunks++;
        }
      } else {
        cid = *locations[i];
      }
      session.emplace(chunk.fp, cid);
      recipe.add(chunk.fp, cid, chunk.size);
    }

    const std::span finished(recipe.entries().data() + recipe_base,
                             recipe.entries().size() - recipe_base);
    index_->finish_segment(finished);
    rewriter_->finish_segment(finished);
  }

  // Containers are sealed at version boundaries (as Destor does), so a
  // version's tail chunks are on disk before its recipe is durable.
  seal_open_container();
  index_->end_version();
  rewriter_->end_version();
  recipes_.put(std::move(recipe));

  total_logical_bytes_ += report.logical_bytes;
  total_stored_bytes_ += report.stored_bytes;
  report.disk_lookups = index_->stats().disk_lookups - lookups_before;
  report.index_memory_bytes = index_->memory_bytes();
  report.elapsed_ms = timer.elapsed_ms();
  return report;
}

RestoreReport DedupPipeline::restore(VersionId version,
                                     const ChunkSink& sink) {
  RestoreConfig cache_config;
  cache_config.container_size = config_.container_size;
  FaaRestore policy{cache_config};
  return restore_with(version, policy, sink);
}

RestoreReport DedupPipeline::restore_with(VersionId version,
                                          RestorePolicy& policy,
                                          const ChunkSink& sink) {
  return restore_range(version, 0, UINT64_MAX, policy, sink);
}

RestoreReport DedupPipeline::restore_range(VersionId version,
                                           std::uint64_t offset,
                                           std::uint64_t length,
                                           RestorePolicy& policy,
                                           const ChunkSink& sink) {
  Stopwatch timer;
  RestoreReport report;
  report.version = version;

  const Recipe* recipe = recipes_.get(version);
  if (recipe == nullptr) return report;

  std::vector<ChunkLoc> stream;
  stream.reserve(recipe->chunk_count());
  for (const auto& e : recipe->entries()) {
    stream.push_back(ChunkLoc{e.fp, e.size, e.cid, /*active=*/false});
  }

  // Built from the whole recipe (a byte-range restore may touch a subset;
  // requesting the stream's full per-container set is still never more than
  // the whole container). Const once built: FAA's fill workers share it.
  const ContainerChunkIndex needed = build_container_chunk_index(stream);
  StoreFetcher fetcher(*store_, &needed);
  const bool whole = offset == 0 && length == UINT64_MAX;
  report.stats =
      whole ? policy.restore(stream, fetcher, sink)
            : restore_byte_range(stream, offset, length, policy, fetcher,
                                 sink);
  report.elapsed_ms = timer.elapsed_ms();
  return report;
}

std::unique_ptr<DedupPipeline> make_baseline(BaselineKind kind,
                                             const PipelineConfig& config) {
  RewriteConfig rewrite_config;
  rewrite_config.container_size = config.container_size;

  auto store = std::make_unique<MemoryContainerStore>();
  switch (kind) {
    case BaselineKind::kDdfs:
      return std::make_unique<DedupPipeline>(
          "ddfs", std::make_unique<FullIndex>(),
          std::make_unique<NoRewrite>(), std::move(store), config);
    case BaselineKind::kSparse:
      return std::make_unique<DedupPipeline>(
          "sparse", std::make_unique<SparseIndex>(),
          std::make_unique<NoRewrite>(), std::move(store), config);
    case BaselineKind::kSilo:
      return std::make_unique<DedupPipeline>(
          "silo", std::make_unique<SiLoIndex>(),
          std::make_unique<NoRewrite>(), std::move(store), config);
    case BaselineKind::kSiloCapping:
      return std::make_unique<DedupPipeline>(
          "silo+capping", std::make_unique<SiLoIndex>(),
          make_rewrite_filter(RewriteKind::kCapping, rewrite_config),
          std::move(store), config);
    case BaselineKind::kSiloAlacc:
      return std::make_unique<DedupPipeline>(
          "silo+alacc", std::make_unique<SiLoIndex>(),
          make_rewrite_filter(RewriteKind::kCbr, rewrite_config),
          std::move(store), config);
    case BaselineKind::kSiloFbw:
      return std::make_unique<DedupPipeline>(
          "silo+fbw", std::make_unique<SiLoIndex>(),
          make_rewrite_filter(RewriteKind::kDynamicCapping, rewrite_config),
          std::move(store), config);
  }
  throw std::invalid_argument("unknown BaselineKind");
}

}  // namespace hds

#include "verify/fsck.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/hidestore.h"
#include "core/shard_router.h"
#include "index/shard_space.h"
#include "storage/durable.h"
#include "storage/journal.h"

namespace hds::verify {

namespace {

constexpr std::string_view kNames[kInvariantCount] = {
    "container_framing", "deletion_tags",     "chunk_crc",
    "recipe_resolution", "recipe_chain",      "active_resolution",
    "class_exclusivity", "pool_utilization",  "cache_consistency",
    "accounting",        "manifest_commit",   "orphan_containers",
    "footer_index",      "shard_id_namespace", "shard_exclusivity",
    "active_files",
};

// Accumulates one invariant's result, capping recorded findings.
class CheckBuilder {
 public:
  CheckBuilder(Invariant invariant, std::size_t max_findings)
      : max_findings_(max_findings) {
    check_.invariant = invariant;
  }

  void object() noexcept { check_.objects_checked++; }
  void objects(std::uint64_t n) noexcept { check_.objects_checked += n; }

  void fail(std::string object, std::string detail) {
    check_.violations++;
    if (check_.findings.size() < max_findings_) {
      check_.findings.push_back(
          {check_.invariant, std::move(object), std::move(detail)});
    }
  }

  // Checks one named predicate as a single object.
  void expect(bool ok, std::string_view object, std::string_view detail) {
    check_.objects_checked++;
    if (!ok) fail(std::string(object), std::string(detail));
  }

  [[nodiscard]] FsckCheck take() { return std::move(check_); }

 private:
  std::size_t max_findings_;
  FsckCheck check_;
};

std::string container_name(ContainerId cid) {
  return "container " + std::to_string(cid);
}

std::string entry_name(VersionId version, std::size_t index,
                       const Fingerprint& fp) {
  return "recipe v" + std::to_string(version) + " entry " +
         std::to_string(index) + " (" + fp.hex().substr(0, 12) + ")";
}

void json_escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Shared walk state: archival containers read once, cascade suppression.
struct StoreView {
  std::unordered_map<ContainerId, std::shared_ptr<const Container>> archival;
  std::unordered_set<ContainerId> unreadable;

  [[nodiscard]] const Container* find(ContainerId cid) const noexcept {
    const auto it = archival.find(cid);
    return it == archival.end() ? nullptr : it->second.get();
  }
};

FsckCheck check_container_framing(HiDeStore& sys, StoreView& view,
                                  const FsckOptions& opt) {
  CheckBuilder out(Invariant::kContainerFraming, opt.max_findings);
  auto ids = sys.archival_store().ids();
  std::sort(ids.begin(), ids.end());
  for (const ContainerId cid : ids) {
    out.object();
    // read_verified bypasses the file store's fd/block caches: fsck must
    // see the medium, not a pristine in-memory image of the container.
    const auto container = sys.archival_store().read_verified(cid);
    if (!container) {
      view.unreadable.insert(cid);
      out.fail(container_name(cid),
               "unreadable or corrupt (deserialize/CRC failure)");
      continue;
    }
    view.archival.emplace(cid, container);
    if (container->id() != cid) {
      out.fail(container_name(cid),
               "stored ID " + std::to_string(container->id()) +
                   " does not match its store key");
    }
    if (container->data_size() > container->capacity()) {
      out.fail(container_name(cid),
               "data size " + std::to_string(container->data_size()) +
                   " exceeds capacity " +
                   std::to_string(container->capacity()));
    }
  }
  return out.take();
}

FsckCheck check_deletion_tags(const HiDeStore& sys, const StoreView& view,
                              const FsckOptions& opt) {
  CheckBuilder out(Invariant::kDeletionTags, opt.max_findings);
  const auto& tags = sys.container_tags();
  for (const auto& [cid, container] : view.archival) {
    (void)container;
    out.object();
    if (!tags.contains(cid)) {
      out.fail(container_name(cid),
               "archival container carries no deletion tag (§4.5)");
    }
  }
  for (const auto& [cid, version] : tags) {
    out.object();
    if (!view.archival.contains(cid) && !view.unreadable.contains(cid)) {
      out.fail(container_name(cid),
               "deletion tag (version " + std::to_string(version) +
                   ") points at a container absent from the store");
    }
    if (version >= sys.latest_version() && version != 0) {
      out.fail(container_name(cid),
               "deletion tag version " + std::to_string(version) +
                   " is not older than the latest version " +
                   std::to_string(sys.latest_version()));
    }
  }
  return out.take();
}

FsckCheck check_chunk_crc(const HiDeStore& sys, const StoreView& view,
                          const FsckOptions& opt) {
  CheckBuilder out(Invariant::kChunkCrc, opt.max_findings);
  for (const auto& [cid, container] : view.archival) {
    out.objects(container->chunk_count());
    for (const auto& fp : container->corrupt_chunks()) {
      out.fail(container_name(cid) + " chunk " + fp.hex().substr(0, 12),
               "payload CRC-32 does not match the recorded per-chunk CRC");
    }
  }
  const auto& pool = sys.active_pool();
  for (const ContainerId cid : pool.container_ids_sorted()) {
    const auto container = pool.peek(cid);
    if (!container) continue;
    out.objects(container->chunk_count());
    for (const auto& fp : container->corrupt_chunks()) {
      out.fail("active " + container_name(cid) + " chunk " +
                   fp.hex().substr(0, 12),
               "payload CRC-32 does not match the recorded per-chunk CRC");
    }
  }
  return out.take();
}

// Lazily built fingerprint → CID map per recipe, for chain walking.
class RecipeMaps {
 public:
  explicit RecipeMaps(const RecipeStore& recipes) : recipes_(recipes) {}

  // nullptr when the recipe does not exist.
  const std::unordered_map<Fingerprint, ContainerId>* get(VersionId v) {
    if (const auto it = maps_.find(v); it != maps_.end()) {
      return it->second ? &*it->second : nullptr;
    }
    const Recipe* recipe = recipes_.get(v);
    auto& slot = maps_[v];
    if (recipe == nullptr) return nullptr;
    slot.emplace();
    for (const auto& e : recipe->entries()) slot->try_emplace(e.fp, e.cid);
    return &*slot;
  }

 private:
  const RecipeStore& recipes_;
  std::unordered_map<VersionId,
                     std::optional<std::unordered_map<Fingerprint,
                                                      ContainerId>>>
      maps_;
};

FsckCheck check_recipe_resolution(const HiDeStore& sys, const StoreView& view,
                                  const FsckOptions& opt) {
  CheckBuilder out(Invariant::kRecipeResolution, opt.max_findings);
  for (const VersionId v : sys.recipes().versions()) {
    const Recipe* recipe = sys.recipes().get(v);
    const auto& entries = recipe->entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& e = entries[i];
      if (e.cid <= 0) continue;
      out.object();
      // Cascade suppression: framing already reported unreadable containers.
      if (view.unreadable.contains(e.cid)) continue;
      const Container* container = view.find(e.cid);
      if (container == nullptr) {
        out.fail(entry_name(v, i, e.fp),
                 "archival CID " + std::to_string(e.cid) +
                     " is not in the container store");
        continue;
      }
      const auto entry = container->find(e.fp);
      if (!entry) {
        out.fail(entry_name(v, i, e.fp),
                 container_name(e.cid) +
                     " does not hold the referenced fingerprint");
      } else if (entry->size != e.size) {
        out.fail(entry_name(v, i, e.fp),
                 "recipe records " + std::to_string(e.size) +
                     " bytes but " + container_name(e.cid) + " holds " +
                     std::to_string(entry->size));
      }
    }
  }
  return out.take();
}

FsckCheck check_recipe_chain(const HiDeStore& sys, const FsckOptions& opt) {
  CheckBuilder out(Invariant::kRecipeChain, opt.max_findings);
  RecipeMaps maps(sys.recipes());
  const auto& pool = sys.active_pool();
  const std::size_t depth_limit = sys.recipes().versions().size() + 1;

  for (const VersionId v : sys.recipes().versions()) {
    const Recipe* recipe = sys.recipes().get(v);
    const auto& entries = recipe->entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& e = entries[i];
      if (e.cid >= 0) continue;
      out.object();

      ContainerId cid = e.cid;
      VersionId at = v;
      std::size_t hops = 0;
      std::unordered_set<VersionId> visited;
      bool bad = false;
      while (cid < 0) {
        const auto target = static_cast<VersionId>(-cid);
        if (target <= at) {
          out.fail(entry_name(v, i, e.fp),
                   "chain CID -" + std::to_string(target) +
                       " does not point forward in time (from v" +
                       std::to_string(at) + ")");
          bad = true;
          break;
        }
        if (!visited.insert(target).second || ++hops > depth_limit) {
          out.fail(entry_name(v, i, e.fp),
                   "chain cycles or exceeds the retained-version depth " +
                       std::to_string(depth_limit));
          bad = true;
          break;
        }
        const auto* map = maps.get(target);
        if (map == nullptr) {
          out.fail(entry_name(v, i, e.fp),
                   "chain CID points at missing recipe v" +
                       std::to_string(target));
          bad = true;
          break;
        }
        const auto hit = map->find(e.fp);
        if (hit == map->end()) {
          // Legal when the chunk lives on only through the active pool
          // (see HiDeStore::resolve); anything else is a broken chain.
          if (pool.find(e.fp) == nullptr) {
            out.fail(entry_name(v, i, e.fp),
                     "chain broken: fingerprint absent from recipe v" +
                         std::to_string(target) + " and from the pool");
            bad = true;
          }
          cid = kCidActive;
          break;
        }
        at = target;
        cid = hit->second;
      }
      if (bad) continue;
      if (cid == kCidActive && pool.find(e.fp) == nullptr) {
        out.fail(entry_name(v, i, e.fp),
                 "chain terminates in the active class but the pool does "
                 "not hold the fingerprint");
      }
    }
  }
  return out.take();
}

FsckCheck check_active_resolution(const HiDeStore& sys,
                                  const FsckOptions& opt) {
  CheckBuilder out(Invariant::kActiveResolution, opt.max_findings);
  const auto& pool = sys.active_pool();
  const auto window = static_cast<VersionId>(sys.config().cache_window);
  const VersionId latest = sys.latest_version();

  for (const VersionId v : sys.recipes().versions()) {
    const Recipe* recipe = sys.recipes().get(v);
    const auto& entries = recipe->entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& e = entries[i];
      if (e.cid != kCidActive) continue;
      out.object();
      if (v + window <= latest) {
        out.fail(entry_name(v, i, e.fp),
                 "active CID in a finalized recipe (older than the newest " +
                     std::to_string(window) + ")");
        continue;
      }
      const ContainerId* cid = pool.find(e.fp);
      if (cid == nullptr) {
        out.fail(entry_name(v, i, e.fp),
                 "active chunk missing from the pool index");
        continue;
      }
      const auto size = pool.chunk_size(*cid, e.fp);
      if (!size) {
        out.fail(entry_name(v, i, e.fp),
                 "pool index points at active " + container_name(*cid) +
                     " which does not hold the chunk");
      } else if (*size != e.size) {
        out.fail(entry_name(v, i, e.fp),
                 "recipe records " + std::to_string(e.size) +
                     " bytes but active " + container_name(*cid) +
                     " holds " + std::to_string(*size));
      }
    }
  }
  return out.take();
}

FsckCheck check_class_exclusivity(const HiDeStore& sys, const StoreView& view,
                                  const FsckOptions& opt) {
  CheckBuilder out(Invariant::kClassExclusivity, opt.max_findings);
  std::unordered_map<Fingerprint, ContainerId> archival_fps;
  for (const auto& [cid, container] : view.archival) {
    for (const auto& [fp, entry] : container->entries()) {
      (void)entry;
      archival_fps.try_emplace(fp, cid);
    }
  }
  for (const auto& [fp, active_cid] : sys.active_pool().index()) {
    out.object();
    if (const auto it = archival_fps.find(fp); it != archival_fps.end()) {
      out.fail("chunk " + fp.hex().substr(0, 12),
               "hot (active " + container_name(active_cid) +
                   ") and cold (archival " + container_name(it->second) +
                   ") at once");
    }
  }
  return out.take();
}

FsckCheck check_pool_utilization(const HiDeStore& sys,
                                 const FsckOptions& opt) {
  CheckBuilder out(Invariant::kPoolUtilization, opt.max_findings);
  const auto& pool = sys.active_pool();
  const double threshold = sys.config().compaction_threshold;
  std::vector<ContainerId> sparse;
  const auto capacity = static_cast<double>(sys.config().container_size);
  for (const ContainerId cid : pool.container_ids_sorted()) {
    out.object();
    // A resident container's tail; a listed one's live bytes (its holes
    // are in the file, which active_files reads).
    const auto container = pool.peek(cid);
    const std::uint64_t used = pool.used_bytes(cid);
    if ((container ? container->data_size() : used) >
        sys.config().container_size) {
      out.fail("active " + container_name(cid),
               "data size exceeds capacity");
    }
    if (static_cast<double>(used) / capacity < threshold) {
      sparse.push_back(cid);
    }
    // Pool-index agreement: every chunk of the container is indexed here.
    for (const auto& [fp, size] : pool.chunks(cid)) {
      (void)size;
      const ContainerId* indexed = pool.find(fp);
      if (indexed == nullptr || *indexed != cid) {
        out.fail("active " + container_name(cid) + " chunk " +
                     fp.hex().substr(0, 12),
                 indexed == nullptr
                     ? "chunk not present in the pool index"
                     : "pool index maps the chunk to container " +
                           std::to_string(*indexed));
      }
    }
  }
  // Opposite direction: every index entry points at a container that
  // actually holds the chunk.
  const auto ids = pool.container_ids_sorted();
  for (const auto& [fp, cid] : pool.index()) {
    out.object();
    const bool exists = std::binary_search(ids.begin(), ids.end(), cid);
    if (!exists || !pool.chunk_size(cid, fp)) {
      out.fail("pool index entry " + fp.hex().substr(0, 12),
               !exists ? "points at missing active " + container_name(cid)
                       : "active " + container_name(cid) +
                             " does not hold the chunk");
    }
  }
  if (sparse.size() > 1) {
    std::string list;
    for (const ContainerId cid : sparse) {
      list += (list.empty() ? "" : ", ") + std::to_string(cid);
    }
    out.fail("active pool",
             std::to_string(sparse.size()) +
                 " containers below the merge threshold (" + list +
                 ") — compaction should leave at most one");
  }
  return out.take();
}

FsckCheck check_cache_consistency(const HiDeStore& sys,
                                  const FsckOptions& opt) {
  CheckBuilder out(Invariant::kCacheConsistency, opt.max_findings);
  const auto& pool = sys.active_pool();
  std::unordered_set<Fingerprint> cached;

  const DoubleHashFingerprintCache::Table* tables[] = {
      &sys.cache().current(), &sys.cache().previous(), &sys.cache().oldest()};
  const char* tier_names[] = {"T2", "T1", "T0"};
  for (std::size_t t = 0; t < 3; ++t) {
    for (const auto& [fp, entry] : *tables[t]) {
      out.object();
      cached.insert(fp);
      const ContainerId* cid = pool.find(fp);
      const std::string object = std::string(tier_names[t]) + " entry " +
                                 fp.hex().substr(0, 12);
      if (cid == nullptr) {
        out.fail(object, "cached chunk is absent from the pool index");
        continue;
      }
      if (*cid != entry.active_cid) {
        out.fail(object, "cache records active container " +
                             std::to_string(entry.active_cid) +
                             " but the pool index says " +
                             std::to_string(*cid));
        continue;
      }
      const auto stored = pool.chunk_size(*cid, fp);
      if (!stored) {
        out.fail(object, "pool container does not hold the cached chunk");
      } else if (*stored != entry.size) {
        out.fail(object, "cache records " + std::to_string(entry.size) +
                             " bytes but the container holds " +
                             std::to_string(*stored));
      }
    }
  }
  // Opposite direction: every pooled chunk must still be hot, i.e. present
  // in one of the cache tables (§4.1/4.2: the pool IS the hot set).
  for (const auto& [fp, cid] : pool.index()) {
    out.object();
    if (!cached.contains(fp)) {
      out.fail("pooled chunk " + fp.hex().substr(0, 12) + " (active " +
                   container_name(cid) + ")",
               "absent from every fingerprint-cache table");
    }
  }
  return out.take();
}

FsckCheck check_accounting(const HiDeStore& sys, const StoreView& view,
                           const FsckOptions& opt) {
  CheckBuilder out(Invariant::kAccounting, opt.max_findings);
  const auto& m = sys.metrics();
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    const auto* c = m.find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  const auto gauge = [&](std::string_view name) -> double {
    const auto* g = m.find_gauge(name);
    return g == nullptr ? 0.0 : g->value();
  };

  out.expect(counter("chunks_processed") ==
                 counter("t1_hits") + counter("t2_hits") +
                     counter("t0_hits") + counter("unique_chunks"),
             "counter chunks_processed",
             "t1_hits + t2_hits + t0_hits + unique_chunks must equal "
             "chunks_processed");
  out.expect(counter("index_disk_lookups") == 0, "counter index_disk_lookups",
             "HiDeStore never consults an on-disk index (§4.1)");
  out.expect(counter("delete_chunks_scanned") == 0,
             "counter delete_chunks_scanned",
             "deletion never scans chunks (§4.5)");
  out.expect(counter("stored_bytes") <= counter("logical_bytes"),
             "counter stored_bytes",
             "cannot store more than was ingested");

  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
  };
  out.expect(near(gauge("versions_retained"),
                  static_cast<double>(sys.recipes().versions().size())),
             "gauge versions_retained", "stale against the recipe store");
  out.expect(near(gauge("active_containers"),
                  static_cast<double>(sys.active_pool().container_count())),
             "gauge active_containers", "stale against the active pool");
  out.expect(near(gauge("archival_containers"),
                  static_cast<double>(view.archival.size() +
                                      view.unreadable.size())),
             "gauge archival_containers", "stale against the container store");
  out.expect(near(gauge("cache_memory_bytes"),
                  static_cast<double>(sys.cache_memory_bytes())),
             "gauge cache_memory_bytes", "stale against the cache");
  out.expect(near(gauge("active_pool_bytes"),
                  static_cast<double>(sys.active_pool().used_bytes())),
             "gauge active_pool_bytes", "stale against the active pool");
  out.expect(near(gauge("dedup_ratio"), sys.dedup_ratio()),
             "gauge dedup_ratio", "stale against cumulative accounting");

  std::uint64_t physical = sys.active_pool().used_bytes();
  for (const auto& [cid, container] : view.archival) {
    (void)cid;
    physical += container->used_bytes();
  }
  out.expect(physical <= sys.total_stored_bytes(), "space accounting",
             "live bytes (" + std::to_string(physical) +
                 ") exceed cumulative stored bytes (" +
                 std::to_string(sys.total_stored_bytes()) + ")");
  return out.take();
}

// Both §9 durability invariants apply only to persistent repositories: an
// in-memory system has no journal, and a working directory that was never
// save()d has nothing to agree with — those skip with zero objects.
FsckCheck check_manifest_commit(const HiDeStore& sys,
                                const FsckOptions& opt) {
  CheckBuilder out(Invariant::kManifestCommit, opt.max_findings);
  const auto& dir = sys.config().storage_dir;
  if (dir.empty()) return out.take();
  Manifest manifest;
  const ManifestStatus status = load_manifest(dir, manifest);
  if (status == ManifestStatus::kMissing) return out.take();
  if (status != ManifestStatus::kOk) {
    out.expect(false, "MANIFEST",
               status == ManifestStatus::kIoError
                   ? "journal unreadable (I/O failure)"
                   : "journal unreadable (CRC/format failure)");
    return out.take();
  }
  const CommitRecord* head = manifest.head();
  out.expect(head != nullptr, "MANIFEST", "journal holds no commit record");
  if (head == nullptr) return out.take();
  out.expect(head->epoch == sys.epoch(), "MANIFEST head",
             "journal epoch " + std::to_string(head->epoch) +
                 " disagrees with the live system's epoch " +
                 std::to_string(sys.epoch()));
  out.expect(head->next_version == sys.latest_version() + 1,
             "MANIFEST head",
             "journal commits up to version " +
                 std::to_string(head->next_version - 1) +
                 " but the recipe head is version " +
                 std::to_string(sys.latest_version()));
  out.expect(head->oldest_version == sys.oldest_version(), "MANIFEST head",
             "journal oldest version " +
                 std::to_string(head->oldest_version) +
                 " disagrees with the live system's " +
                 std::to_string(sys.oldest_version()));
  // The committed state file the record names must exist: same size, CRC
  // and epoch.
  out.expect(HiDeStore::holds_committed_state(dir, *head),
             journal::file_name(journal::kStateStem, head->epoch),
             "committed state file is missing, unreadable, or does not "
             "match the journal's size/CRC/epoch stamp");
  return out.take();
}

FsckCheck check_orphan_containers(const HiDeStore& sys,
                                  const FsckOptions& opt) {
  CheckBuilder out(Invariant::kOrphanContainers, opt.max_findings);
  const auto& dir = sys.config().storage_dir;
  if (dir.empty()) return out.take();
  Manifest manifest;
  if (load_manifest(dir, manifest) != ManifestStatus::kOk) return out.take();
  const CommitRecord* head = manifest.head();
  if (head == nullptr) return out.take();

  const auto& tags = sys.container_tags();
  std::error_code ec;
  const auto archival_dir = dir / "archival";
  if (!std::filesystem::is_directory(archival_dir, ec)) return out.take();
  std::vector<std::pair<ContainerId, std::string>> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(archival_dir, ec)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("container_", 0) != 0 || !entry.is_regular_file()) {
      continue;
    }
    // container_<id>.hdsc
    const auto id_str = name.substr(10, name.size() - 10 - 5);
    char* end = nullptr;
    const long id = std::strtol(id_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || id <= 0) continue;
    files.emplace_back(static_cast<ContainerId>(id), name);
  }
  std::sort(files.begin(), files.end());
  for (const auto& [id, name] : files) {
    // A live writer's newly sealed containers sit past the watermark.
    if (opt.writer_live && id >= head->store_next && !tags.contains(id)) {
      continue;
    }
    out.object();
    if (!tags.contains(id)) {
      out.fail(name,
               "archival container file carries no committed deletion tag "
               "(orphan of an aborted commit)");
    } else if (id >= head->store_next) {
      out.fail(name, "container ID " + std::to_string(id) +
                         " is at/past the journal's committed watermark " +
                         std::to_string(head->store_next));
    }
  }
  return out.take();
}

// Every load places payloads by the footer index, so fsck re-derives what
// the index promises on its own: the file size the header implies, the
// footer CRC, and non-overlapping entry extents.
// Containers the framing pass already reported are skipped (cascade
// suppression); format-2 files have no footer index and pass vacuously.
FsckCheck check_footer_index(const HiDeStore& sys, const StoreView& view,
                             const FsckOptions& opt) {
  CheckBuilder out(Invariant::kFooterIndex, opt.max_findings);
  const auto& dir = sys.config().storage_dir;
  if (dir.empty()) return out.take();
  const auto archival_dir = dir / "archival";
  std::error_code ec;
  if (!std::filesystem::is_directory(archival_dir, ec)) return out.take();

  std::vector<std::pair<ContainerId, std::filesystem::path>> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(archival_dir, ec)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("container_", 0) != 0 || !entry.is_regular_file()) {
      continue;
    }
    // container_<id>.hdsc
    const auto id_str = name.substr(10, name.size() - 10 - 5);
    char* end = nullptr;
    const long id = std::strtol(id_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || id <= 0) continue;
    files.emplace_back(static_cast<ContainerId>(id), entry.path());
  }
  std::sort(files.begin(), files.end());

  for (const auto& [id, path] : files) {
    if (view.unreadable.contains(id)) continue;  // framing already reported
    out.object();
    const std::string name = path.filename().string();
    const auto read = durable::read_file(path);
    if (!read) {
      out.fail(name, "container file unreadable");
      continue;
    }
    const auto& bytes = *read;
    const auto header = Container::parse_header(bytes);
    if (!header) continue;     // unparseable → framing's finding, not ours
    if (!header->footer_indexed) continue;  // format 2: no footer index
    if (bytes.size() != header->expected_file_size()) {
      out.fail(name, "file size " + std::to_string(bytes.size()) +
                         " does not match the header-implied " +
                         std::to_string(header->expected_file_size()));
      continue;
    }
    const std::span<const std::uint8_t> all(bytes);
    const auto entries = Container::parse_footer(
        all.first(Container::kHeaderSize),
        all.subspan(static_cast<std::size_t>(header->footer_offset()),
                    static_cast<std::size_t>(header->footer_size())));
    if (!entries) {
      out.fail(name,
               "footer index fails its CRC or holds an out-of-bounds extent");
      continue;
    }
    // No two physical extents may overlap: each extent belongs to exactly
    // one chunk.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
    extents.reserve(entries->size());
    for (const auto& [fp, entry] : *entries) {
      (void)fp;
      if (entry.offset == Container::kVirtualOffset || entry.size == 0) {
        continue;
      }
      extents.emplace_back(entry.offset,
                           std::uint64_t{entry.offset} + entry.size);
    }
    std::sort(extents.begin(), extents.end());
    for (std::size_t i = 1; i < extents.size(); ++i) {
      if (extents[i].first < extents[i - 1].second) {
        out.fail(name, "entry extents overlap at offset " +
                           std::to_string(extents[i].first));
        break;
      }
    }
  }
  return out.take();
}

// The active container files against the committed listing: each named
// file is re-read from the medium (no pool cache), checked whole-file and
// per chunk, and compared with the listing of a container this process
// has not changed since; then no other container file may sit beside them.
FsckCheck check_active_files(const HiDeStore& sys, const FsckOptions& opt) {
  CheckBuilder out(Invariant::kActiveFiles, opt.max_findings);
  const auto& pool = sys.active_pool();
  if (pool.dir().empty()) return out.take();
  const auto& named = pool.committed_files();
  const auto ids = pool.container_ids_sorted();
  for (const auto& [id, epoch] : named) {
    out.object();
    const std::string name = ActiveContainerPool::file_name(id, epoch);
    const auto bytes = durable::read_file(pool.dir() / name);
    if (!bytes) {
      out.fail(name, "listed active container file is missing or unreadable");
      continue;
    }
    const auto container =
        Container::deserialize(*bytes, Container::LoadCheck::kWholeFile);
    if (!container || container->id() != id) {
      out.fail(name, !container ? "fails its seal or footer CRC"
                                : "holds active container " +
                                      std::to_string(container->id()));
      continue;
    }
    for (const auto& fp : container->corrupt_chunks()) {
      out.fail(name + " chunk " + fp.hex().substr(0, 12),
               "payload CRC-32 does not match the recorded per-chunk CRC");
    }
    if (!std::binary_search(ids.begin(), ids.end(), id) || pool.dirty(id)) {
      continue;  // changed since the commit: the listing is in memory only
    }
    std::vector<std::pair<Fingerprint, std::uint32_t>> held;
    for (const auto& [fp, entry] : container->entries()) {
      held.emplace_back(fp, entry.size);
    }
    std::sort(held.begin(), held.end());
    if (const auto listed = pool.chunks(id); held != listed) {
      out.fail(name, "holds " + std::to_string(held.size()) +
                         " chunk(s) that differ from the " +
                         std::to_string(listed.size()) + " the state lists");
    }
  }
  std::vector<std::string> unnamed;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(pool.dir(), ec)) {
    const std::string name = entry.path().filename().string();
    const auto parsed = ActiveContainerPool::parse_file_name(name);
    if (!parsed) continue;
    const auto it = named.find(parsed->first);
    if (it != named.end() && it->second == parsed->second) continue;
    // A live writer stages its changed containers past the committed epoch.
    if (opt.writer_live && parsed->second > sys.epoch()) continue;
    unnamed.push_back(name);
  }
  std::sort(unnamed.begin(), unnamed.end());
  for (const auto& name : unnamed) {
    out.object();
    out.fail(name, "active container file the committed state does not "
                   "name (debris of an unfinished save; run recover)");
  }
  return out.take();
}

}  // namespace

std::string_view invariant_name(Invariant invariant) noexcept {
  return kNames[static_cast<std::size_t>(invariant)];
}

const FsckCheck& FsckReport::check(Invariant invariant) const {
  return checks.at(static_cast<std::size_t>(invariant));
}

bool FsckReport::clean() const noexcept {
  return std::all_of(checks.begin(), checks.end(),
                     [](const FsckCheck& c) { return c.passed(); });
}

std::uint64_t FsckReport::total_violations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : checks) total += c.violations;
  return total;
}

std::string FsckReport::to_text() const {
  std::ostringstream out;
  const std::uint64_t total = total_violations();
  if (total == 0) {
    out << "hds fsck: clean — all " << checks.size()
        << " invariants hold\n";
  } else {
    std::size_t failed = 0;
    for (const auto& c : checks) failed += c.passed() ? 0 : 1;
    out << "hds fsck: " << failed << " invariant(s) violated, " << total
        << " finding(s)\n";
  }
  for (const auto& c : checks) {
    out << "  [" << (c.passed() ? " OK " : "FAIL") << "] ";
    const auto name = invariant_name(c.invariant);
    out << name;
    for (std::size_t pad = name.size(); pad < 20; ++pad) out << ' ';
    out << c.violations << " violation(s), " << c.objects_checked
        << " object(s) checked\n";
    for (const auto& f : c.findings) {
      out << "         " << f.object << ": " << f.detail << "\n";
    }
  }
  return out.str();
}

std::string FsckReport::to_json() const {
  std::string out = "{\"clean\":";
  out += clean() ? "true" : "false";
  out += ",\"total_violations\":" + std::to_string(total_violations());
  out += ",\"checks\":[";
  bool first_check = true;
  for (const auto& c : checks) {
    if (!first_check) out += ',';
    first_check = false;
    out += "{\"invariant\":\"";
    out += invariant_name(c.invariant);
    out += "\",\"passed\":";
    out += c.passed() ? "true" : "false";
    out += ",\"objects_checked\":" + std::to_string(c.objects_checked);
    out += ",\"violations\":" + std::to_string(c.violations);
    out += ",\"findings\":[";
    bool first_finding = true;
    for (const auto& f : c.findings) {
      if (!first_finding) out += ',';
      first_finding = false;
      out += "{\"object\":\"";
      json_escape(out, f.object);
      out += "\",\"detail\":\"";
      json_escape(out, f.detail);
      out += "\"}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

FsckReport run_fsck(HiDeStore& system, const FsckOptions& options) {
  FsckReport report;
  report.checks.reserve(kInvariantCount);
  StoreView view;
  report.checks.push_back(check_container_framing(system, view, options));
  report.checks.push_back(check_deletion_tags(system, view, options));
  report.checks.push_back(check_chunk_crc(system, view, options));
  report.checks.push_back(check_recipe_resolution(system, view, options));
  report.checks.push_back(check_recipe_chain(system, options));
  report.checks.push_back(check_active_resolution(system, options));
  report.checks.push_back(check_class_exclusivity(system, view, options));
  report.checks.push_back(check_pool_utilization(system, options));
  report.checks.push_back(check_cache_consistency(system, options));
  report.checks.push_back(check_accounting(system, view, options));
  report.checks.push_back(check_manifest_commit(system, options));
  report.checks.push_back(check_orphan_containers(system, options));
  report.checks.push_back(check_footer_index(system, view, options));
  // Shard invariants hold vacuously for a standalone (single-shard) system;
  // the entries keep the report shape uniform across both checkers.
  report.checks.push_back(
      CheckBuilder(Invariant::kShardIdNamespace, options.max_findings)
          .take());
  report.checks.push_back(
      CheckBuilder(Invariant::kShardExclusivity, options.max_findings)
          .take());
  report.checks.push_back(check_active_files(system, options));
  return report;
}

FsckReport run_fsck(ShardRouter& router, const FsckOptions& options) {
  if (router.shard_count() == 1) return run_fsck(router.shard(0), options);
  const std::size_t shards = router.shard_count();

  // Per-shard catalog, merged per invariant.
  FsckReport report;
  report.checks.resize(kInvariantCount);
  for (std::size_t k = 0; k < kInvariantCount; ++k) {
    report.checks[k].invariant = static_cast<Invariant>(k);
  }
  for (std::size_t i = 0; i < shards; ++i) {
    const FsckReport shard_report = run_fsck(router.shard(i), options);
    const std::string prefix = "shard_" + std::to_string(i) + ": ";
    for (std::size_t k = 0; k < kInvariantCount; ++k) {
      FsckCheck& merged = report.checks[k];
      const FsckCheck& part = shard_report.checks[k];
      merged.objects_checked += part.objects_checked;
      merged.violations += part.violations;
      for (const FsckFinding& finding : part.findings) {
        if (merged.findings.size() >= options.max_findings) break;
        merged.findings.push_back(
            {finding.invariant, prefix + finding.object, finding.detail});
      }
    }
  }

  // shard_id_namespace: the archival ids each shard's journal vouches for
  // (its deletion tags — a bijection with its archival containers per
  // kDeletionTags) must all sit in the shard's id band. Active-pool ids and
  // negative chain links are shard-local and never cross shards.
  {
    CheckBuilder out(Invariant::kShardIdNamespace, options.max_findings);
    for (std::size_t i = 0; i < shards; ++i) {
      for (const auto& [cid, tag] : router.shard(i).container_tags()) {
        out.object();
        if (shard_of_container(cid) != i) {
          out.fail(container_name(cid),
                   "tagged by shard " + std::to_string(i) +
                       " but its id names shard " +
                       std::to_string(shard_of_container(cid)));
        }
      }
    }
    report.checks[static_cast<std::size_t>(Invariant::kShardIdNamespace)] =
        out.take();
  }

  // shard_exclusivity: every fingerprint a shard holds routes to that shard
  // under fp.bytes[0] % N. Routing is a function of the fingerprint alone,
  // so this also proves no fingerprint is resident in two shards.
  {
    CheckBuilder out(Invariant::kShardExclusivity, options.max_findings);
    for (std::size_t i = 0; i < shards; ++i) {
      const std::string where = "shard " + std::to_string(i);
      for (const auto& [fp, cid] : router.shard(i).active_pool().index()) {
        out.object();
        if (shard_of_fingerprint(fp, shards) != i) {
          out.fail("pool fingerprint " + fp.hex().substr(0, 12),
                   where + " holds a fingerprint routed to shard " +
                       std::to_string(shard_of_fingerprint(fp, shards)));
        }
      }
      const RecipeStore& recipes = router.shard(i).recipes();
      for (const VersionId version : recipes.versions()) {
        const Recipe* recipe = recipes.get(version);
        if (recipe == nullptr) continue;
        for (std::size_t e = 0; e < recipe->entries().size(); ++e) {
          const RecipeEntry& entry = recipe->entries()[e];
          out.object();
          if (shard_of_fingerprint(entry.fp, shards) != i) {
            out.fail(entry_name(version, e, entry.fp),
                     where + " recipe holds a fingerprint routed to shard " +
                         std::to_string(
                             shard_of_fingerprint(entry.fp, shards)));
          }
        }
      }
    }
    report.checks[static_cast<std::size_t>(Invariant::kShardExclusivity)] =
        out.take();
  }
  return report;
}

}  // namespace hds::verify

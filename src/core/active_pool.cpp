#include "core/active_pool.h"

#include <algorithm>
#include <stdexcept>

#include "common/byte_io.h"
#include "verify/invariant.h"

namespace hds {

Container& ActiveContainerPool::open_container(std::size_t chunk_size) {
  if (open_id_ != 0) {
    auto& open = *containers_.at(open_id_);
    if (open.fits(chunk_size)) return open;
  }
  open_id_ = next_id_++;
  auto container = std::make_shared<Container>(open_id_, container_size_);
  auto& ref = *container;
  containers_.emplace(open_id_, std::move(container));
  return ref;
}

ContainerId ActiveContainerPool::add(const ChunkRecord& chunk) {
  auto& container = open_container(chunk.size);
  bool ok;
  if (!materialize_) {
    ok = container.add_meta(chunk.fp, chunk.size);
  } else if (chunk.data) {
    // Real bytes: copy straight out of the shared ingest buffer.
    ok = container.add(chunk.fp, chunk.bytes());
  } else {
    const auto bytes = chunk.materialize();
    ok = container.add(chunk.fp, bytes);
  }
  if (!ok) throw std::logic_error("active pool: duplicate or oversize chunk");
  index_[chunk.fp] = container.id();
  HDS_CHECK(containers_.at(container.id())->contains(chunk.fp),
            "stored chunk not retrievable from its active container");
  return container.id();
}

const ContainerId* ActiveContainerPool::find(
    const Fingerprint& fp) const noexcept {
  const auto it = index_.find(fp);
  return it == index_.end() ? nullptr : &it->second;
}

std::shared_ptr<const Container> ActiveContainerPool::peek(
    ContainerId cid) const noexcept {
  const auto it = containers_.find(cid);
  return it == containers_.end() ? nullptr : it->second;
}

std::shared_ptr<const Container> ActiveContainerPool::fetch(ContainerId cid) {
  const auto it = containers_.find(cid);
  if (it == containers_.end()) return nullptr;
  stats_.container_reads++;
  stats_.bytes_read += it->second->data_size();
  return it->second;
}

void ActiveContainerPool::attach_metrics(obs::MetricsRegistry& registry) {
  registry.counter_view("pool_container_reads", stats_.container_reads);
  registry.counter_view("pool_bytes_read", stats_.bytes_read);
}

std::vector<std::uint8_t> ActiveContainerPool::extract(const Fingerprint& fp) {
  const auto idx = index_.find(fp);
  if (idx == index_.end()) {
    throw std::logic_error("active pool: extract of unknown chunk");
  }
  auto& container = *containers_.at(idx->second);
  const auto bytes = container.read(fp).value();
  std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
  container.remove(fp);
  index_.erase(idx);
  HDS_INVARIANT(!index_.contains(fp));
  return out;
}

void ActiveContainerPool::discard(const Fingerprint& fp) {
  const auto idx = index_.find(fp);
  if (idx == index_.end()) {
    throw std::logic_error("active pool: discard of unknown chunk");
  }
  containers_.at(idx->second)->remove(fp);
  index_.erase(idx);
  HDS_INVARIANT(!index_.contains(fp));
}

std::vector<ContainerId> ActiveContainerPool::container_ids_sorted() const {
  std::vector<ContainerId> ids;
  ids.reserve(containers_.size());
  for (const auto& [id, _] : containers_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::uint64_t ActiveContainerPool::used_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [_, c] : containers_) total += c->used_bytes();
  return total;
}

std::vector<std::uint8_t> ActiveContainerPool::serialize_state() const {
  ByteWriter writer;
  writer.u32(static_cast<std::uint32_t>(next_id_));
  writer.u32(static_cast<std::uint32_t>(open_id_));
  writer.u32(static_cast<std::uint32_t>(containers_.size()));
  for (const ContainerId id : container_ids_sorted()) {
    writer.blob(containers_.at(id)->serialize());
  }
  return writer.take();
}

bool ActiveContainerPool::restore_state(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  std::uint32_t next_id, open_id, count;
  if (!reader.u32(next_id) || !reader.u32(open_id) || !reader.u32(count)) {
    return false;
  }
  decltype(containers_) loaded;
  decltype(index_) index;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> blob;
    if (!reader.blob(blob)) return false;
    auto container = Container::deserialize(blob);
    if (!container) return false;
    const ContainerId id = container->id();
    for (const auto& [fp, entry] : container->entries()) index[fp] = id;
    loaded.emplace(id,
                   std::make_shared<Container>(std::move(*container)));
  }
  if (!reader.exhausted()) return false;
  next_id_ = static_cast<ContainerId>(next_id);
  open_id_ = static_cast<ContainerId>(open_id);
  containers_ = std::move(loaded);
  index_ = std::move(index);
  return true;
}

std::unordered_map<Fingerprint, ContainerId> ActiveContainerPool::compact(
    double threshold) {
  std::unordered_map<Fingerprint, ContainerId> remap;

  // Sparse = below the utilization threshold. The open container is merged
  // like any other; merging re-opens a fresh tail container anyway.
  std::vector<ContainerId> sparse;
  for (const auto& [id, c] : containers_) {
    if (c->utilization() < threshold || c->chunk_count() == 0) {
      sparse.push_back(id);
    }
  }
  if (sparse.size() < 2) return remap;
  std::sort(sparse.begin(), sparse.end());

  open_id_ = 0;  // force a fresh destination container
  for (const ContainerId src_id : sparse) {
    const auto src = containers_.at(src_id);
    // Copy chunks out in offset order to preserve their adjacency.
    std::vector<std::pair<std::uint32_t, Fingerprint>> order;
    order.reserve(src->entries().size());
    for (const auto& [fp, entry] : src->entries()) {
      order.emplace_back(entry.offset, fp);
    }
    std::sort(order.begin(), order.end());

    for (const auto& [offset, fp] : order) {
      (void)offset;
      // The payload was CRC-checked when it was added or loaded; its entry
      // CRC moves with it, so the merge is one memcpy per chunk and no
      // checksum at all.
      const auto bytes = src->read(fp).value();
      const auto entry = src->find(fp);
      auto& dst = open_container(bytes.size());
      // Metadata-only pools stay metadata-only through compaction; never
      // materialize placeholder payloads.
      const bool ok =
          materialize_ ? dst.add_with_crc(fp, bytes, entry->crc)
                       : dst.add_meta(fp,
                                      static_cast<std::uint32_t>(bytes.size()));
      if (!ok) {
        throw std::logic_error("active pool: compaction add failed");
      }
      index_[fp] = dst.id();
      remap[fp] = dst.id();
    }
    containers_.erase(src_id);
  }
  // Post-compaction invariant (Figure 6): merging leaves at most one
  // container (the fresh tail) below the utilization threshold.
  HDS_CHECK(std::count_if(containers_.begin(), containers_.end(),
                          [&](const auto& kv) {
                            return kv.second->utilization() < threshold;
                          }) <= 1,
            "compaction left more than one sparse active container");
  HDS_CHECK(std::all_of(remap.begin(), remap.end(),
                        [&](const auto& kv) {
                          const auto it = containers_.find(kv.second);
                          return it != containers_.end() &&
                                 it->second->contains(kv.first);
                        }),
            "compaction remap points at a container missing the chunk");
  return remap;
}

}  // namespace hds

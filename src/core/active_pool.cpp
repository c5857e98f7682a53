#include "core/active_pool.h"

#include <algorithm>
#include <stdexcept>
#include <system_error>

#include "common/parse.h"
#include "obs/log.h"
#include "storage/durable.h"
#include "verify/invariant.h"

namespace hds {

namespace fs = std::filesystem;

namespace {
constexpr std::string_view kPrefix = "container_";
constexpr std::string_view kSuffix = ".hdsc";
}  // namespace

std::string ActiveContainerPool::file_name(ContainerId id,
                                           std::uint64_t epoch) {
  return std::string(kPrefix) + std::to_string(id) + "." +
         std::to_string(epoch) + std::string(kSuffix);
}

std::optional<std::pair<ContainerId, std::uint64_t>>
ActiveContainerPool::parse_file_name(std::string_view name) {
  if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) {
    return std::nullopt;
  }
  name.remove_prefix(kPrefix.size());
  name.remove_suffix(kSuffix.size());
  const auto dot = name.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  const auto id_digits = name.substr(0, dot);
  const auto epoch_digits = name.substr(dot + 1);
  // One spelling per file: no empty field, no leading zero.
  for (const auto digits : {id_digits, epoch_digits}) {
    if (digits.empty() || digits.front() == '0') return std::nullopt;
  }
  const auto id = parse_uint(id_digits);
  const auto epoch = parse_uint(epoch_digits);
  if (!id || !epoch || *id > 0x7FFFFFFFu) return std::nullopt;
  return std::pair{static_cast<ContainerId>(*id), *epoch};
}

std::uint64_t ActiveContainerPool::slot_used(const Slot& slot) const noexcept {
  return slot.resident ? slot.resident->used_bytes() : slot.used;
}

std::size_t ActiveContainerPool::slot_chunks(const Slot& slot) const noexcept {
  return slot.resident ? slot.resident->chunk_count() : slot.listed.size();
}

bool ActiveContainerPool::load(ContainerId cid, Slot& slot) const {
  const fs::path path = dir_ / file_name(cid, slot.epoch);
  const auto bytes = durable::read_file(path);
  // The whole file, then every live payload against its chunk CRC: the
  // one check a payload gets (DESIGN.md §10).
  auto container = bytes ? Container::deserialize(*bytes) : std::nullopt;
  bool agrees = container && container->id() == cid &&
                container->used_bytes() == slot.used &&
                container->chunk_count() == slot.listed.size();
  if (agrees) {
    for (const auto& [fp, entry] : container->entries()) {
      const auto it = slot.listed.find(fp);
      if (it == slot.listed.end() || it->second != entry.size) {
        agrees = false;
        break;
      }
    }
  }
  if (!agrees) {
    if (obs::log_enabled(obs::LogLevel::kWarn)) {
      obs::log_warn("active_container_load_failed",
                    {{"file", path.string()},
                     {"reason", !bytes       ? "unreadable"
                                : !container ? "corrupt"
                                             : "disagrees with the listing"}});
    }
    return false;
  }
  slot.resident = std::make_shared<Container>(std::move(*container));
  slot.listed.clear();
  return true;
}

Container& ActiveContainerPool::touch(ContainerId cid) {
  MutexLock lock(mu_);
  Slot& slot = slots_.at(cid);
  if (!slot.resident && !load(cid, slot)) {
    throw std::runtime_error("active container " + std::to_string(cid) +
                             ": cannot load " +
                             (dir_ / file_name(cid, slot.epoch)).string());
  }
  return *slot.resident;
}

Container& ActiveContainerPool::open_container(std::size_t chunk_size) {
  if (open_id_ != 0 && slots_.contains(open_id_)) {
    auto& open = touch(open_id_);
    if (open.fits(chunk_size)) return open;
  }
  open_id_ = next_id_++;
  Slot& slot = slots_[open_id_];
  slot.resident = std::make_shared<Container>(open_id_, container_size_);
  return *slot.resident;
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
  slots_.at(container.id()).dirty = true;
  index_[chunk.fp] = container.id();
  HDS_CHECK(container.contains(chunk.fp),
            "stored chunk not retrievable from its active container");
  return container.id();
}

const ContainerId* ActiveContainerPool::find(
    const Fingerprint& fp) const noexcept {
  const auto it = index_.find(fp);
  return it == index_.end() ? nullptr : &it->second;
}

std::shared_ptr<const Container> ActiveContainerPool::peek(
    ContainerId cid) const {
  MutexLock lock(mu_);
  const auto it = slots_.find(cid);
  return it == slots_.end() ? nullptr : it->second.resident;
}

std::shared_ptr<const Container> ActiveContainerPool::fetch(ContainerId cid) {
  std::shared_ptr<const Container> container;
  {
    MutexLock lock(mu_);
    const auto it = slots_.find(cid);
    if (it == slots_.end()) return nullptr;
    Slot& slot = it->second;
    if (!slot.resident && !load(cid, slot)) return nullptr;
    container = slot.resident;
  }
  stats_.container_reads++;
  stats_.bytes_read += container->data_size();
  return container;
}

std::optional<std::uint32_t> ActiveContainerPool::chunk_size(
    ContainerId cid, const Fingerprint& fp) const {
  MutexLock lock(mu_);
  const auto it = slots_.find(cid);
  if (it == slots_.end()) return std::nullopt;
  const Slot& slot = it->second;
  if (slot.resident) {
    const auto entry = slot.resident->find(fp);
    return entry ? std::optional(entry->size) : std::nullopt;
  }
  const auto listed = slot.listed.find(fp);
  return listed == slot.listed.end() ? std::nullopt
                                     : std::optional(listed->second);
}

std::vector<std::pair<Fingerprint, std::uint32_t>> ActiveContainerPool::chunks(
    ContainerId cid) const {
  std::vector<std::pair<Fingerprint, std::uint32_t>> out;
  MutexLock lock(mu_);
  const auto it = slots_.find(cid);
  if (it == slots_.end()) return out;
  const Slot& slot = it->second;
  if (slot.resident) {
    for (const auto& [fp, entry] : slot.resident->entries()) {
      out.emplace_back(fp, entry.size);
    }
  } else {
    out.assign(slot.listed.begin(), slot.listed.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t ActiveContainerPool::used_bytes(ContainerId cid) const {
  MutexLock lock(mu_);
  const auto it = slots_.find(cid);
  return it == slots_.end() ? 0 : slot_used(it->second);
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
  auto& container = touch(idx->second);
  const auto bytes = container.read(fp).value();
  std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
  container.remove(fp);
  slots_.at(idx->second).dirty = true;
  index_.erase(idx);
  HDS_INVARIANT(!index_.contains(fp));
  return out;
}

void ActiveContainerPool::discard(const Fingerprint& fp) {
  const auto idx = index_.find(fp);
  if (idx == index_.end()) {
    throw std::logic_error("active pool: discard of unknown chunk");
  }
  touch(idx->second).remove(fp);
  slots_.at(idx->second).dirty = true;
  index_.erase(idx);
  HDS_INVARIANT(!index_.contains(fp));
}

std::vector<ContainerId> ActiveContainerPool::container_ids_sorted() const {
  std::vector<ContainerId> ids;
  ids.reserve(slots_.size());
  for (const auto& [id, _] : slots_) ids.push_back(id);
  return ids;
}

std::uint64_t ActiveContainerPool::used_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [_, slot] : slots_) total += slot_used(slot);
  return total;
}

std::size_t ActiveContainerPool::resident_count() const {
  MutexLock lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const auto& kv) { return kv.second.resident; }));
}

bool ActiveContainerPool::dirty(ContainerId cid) const {
  const auto it = slots_.find(cid);
  return it != slots_.end() && it->second.dirty;
}

void ActiveContainerPool::write_dirty(std::uint64_t epoch) {
  try {
    for (const auto& [id, slot] : slots_) {
      if (!slot.dirty) continue;
      // Dirty means changed in this process, so the container is resident.
      durable::atomic_write_file(dir_ / file_name(id, epoch),
                                 slot.resident->serialize());
    }
  } catch (const durable::InjectedCrash&) {
    throw;  // a simulated crash leaves its debris, as a real one would
  } catch (...) {
    abort(epoch);
    throw;
  }
}

void ActiveContainerPool::write_listing(ByteWriter& out,
                                        std::uint64_t epoch) const {
  out.u32(static_cast<std::uint32_t>(next_id_));
  out.u32(static_cast<std::uint32_t>(open_id_));
  out.u32(static_cast<std::uint32_t>(slots_.size()));
  for (const auto& [id, slot] : slots_) {
    const auto entries = chunks(id);
    out.u32(static_cast<std::uint32_t>(id));
    out.u64(slot.dirty ? epoch : slot.epoch);
    out.u64(slot_used(slot));
    out.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [fp, size] : entries) {
      out.raw(fp.bytes);
      out.u32(size);
    }
  }
}

bool ActiveContainerPool::read_listing(ByteReader& in,
                                       std::uint64_t max_epoch) {
  std::uint32_t next_id, open_id, count;
  if (!in.u32(next_id) || !in.u32(open_id) || !in.u32(count) ||
      next_id == 0 || next_id > 0x7FFFFFFFu) {
    return false;
  }
  decltype(slots_) slots;
  decltype(index_) index;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t id, entries;
    Slot slot;
    slot.dirty = false;
    if (!in.u32(id) || !in.u64(slot.epoch) || !in.u64(slot.used) ||
        !in.u32(entries) || id == 0 || id >= next_id || slot.epoch == 0 ||
        slot.epoch > max_epoch || slot.used > container_size_ ||
        slots.contains(static_cast<ContainerId>(id))) {
      return false;
    }
    std::uint64_t sum = 0;
    for (std::uint32_t e = 0; e < entries; ++e) {
      Fingerprint fp;
      std::uint32_t size;
      if (!in.raw(fp.bytes) || !in.u32(size) ||
          !index.emplace(fp, static_cast<ContainerId>(id)).second) {
        return false;
      }
      slot.listed.emplace(fp, size);
      sum += size;
    }
    if (sum != slot.used) return false;
    slots.emplace(static_cast<ContainerId>(id), std::move(slot));
  }
  next_id_ = static_cast<ContainerId>(next_id);
  open_id_ = static_cast<ContainerId>(open_id);
  committed_.clear();
  for (const auto& [id, slot] : slots) committed_.emplace(id, slot.epoch);
  slots_ = std::move(slots);
  index_ = std::move(index);
  return true;
}

bool ActiveContainerPool::read_inline(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  std::uint32_t next_id, open_id, count;
  if (!reader.u32(next_id) || !reader.u32(open_id) || !reader.u32(count)) {
    return false;
  }
  decltype(slots_) slots;
  decltype(index_) index;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> blob;
    if (!reader.blob(blob)) return false;
    auto container = Container::deserialize(blob);
    if (!container) return false;
    const ContainerId id = container->id();
    for (const auto& [fp, entry] : container->entries()) index[fp] = id;
    slots[id].resident = std::make_shared<Container>(std::move(*container));
  }
  if (!reader.exhausted()) return false;
  next_id_ = static_cast<ContainerId>(next_id);
  open_id_ = static_cast<ContainerId>(open_id);
  committed_.clear();
  slots_ = std::move(slots);
  index_ = std::move(index);
  return true;
}

std::vector<fs::path> ActiveContainerPool::files_where(
    const std::function<bool(ContainerId, std::uint64_t)>& pick) const {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto named = parse_file_name(entry.path().filename().string());
    if (named && pick(named->first, named->second)) {
      out.push_back(entry.path());
    }
  }
  return out;
}

void ActiveContainerPool::commit(std::uint64_t epoch) {
  committed_.clear();
  for (auto& [id, slot] : slots_) {
    if (slot.dirty) {
      slot.epoch = epoch;
      slot.dirty = false;
    }
    committed_.emplace(id, slot.epoch);
  }
  std::error_code ec;
  for (const auto& path : files_where([&](ContainerId id, std::uint64_t e) {
         const auto it = committed_.find(id);
         return it == committed_.end() || it->second != e;
       })) {
    fs::remove(path, ec);
  }
}

void ActiveContainerPool::abort(std::uint64_t epoch) const {
  std::error_code ec;
  for (const auto& path : files_where([&](ContainerId, std::uint64_t e) {
         return e == epoch;
       })) {
    fs::remove(path, ec);
  }
}

std::unordered_map<Fingerprint, ContainerId> ActiveContainerPool::compact(
    double threshold) {
  std::unordered_map<Fingerprint, ContainerId> remap;

  // Sparse = below the utilization threshold, judged from the listing so
  // that only the containers that merge load. The open container is merged
  // like any other; merging re-opens a fresh tail container anyway.
  std::vector<ContainerId> sparse;
  for (const auto& [id, slot] : slots_) {
    const double utilization =
        slot.resident ? slot.resident->utilization()
                      : static_cast<double>(slot.used) /
                            static_cast<double>(container_size_);
    if (utilization < threshold || slot_chunks(slot) == 0) {
      sparse.push_back(id);
    }
  }
  if (sparse.size() < 2) return remap;

  open_id_ = 0;  // force a fresh destination container
  for (const ContainerId src_id : sparse) {
    touch(src_id);
    const std::shared_ptr<const Container> src = slots_.at(src_id).resident;
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
      slots_.at(dst.id()).dirty = true;
      index_[fp] = dst.id();
      remap[fp] = dst.id();
    }
    slots_.erase(src_id);
  }
  // Post-compaction invariant (Figure 6): merging leaves at most one
  // container (the fresh tail) below the utilization threshold.
  HDS_CHECK(std::count_if(slots_.begin(), slots_.end(),
                          [&](const auto& kv) {
                            return static_cast<double>(slot_used(kv.second)) /
                                       static_cast<double>(container_size_) <
                                   threshold;
                          }) <= 1,
            "compaction left more than one sparse active container");
  HDS_CHECK(std::all_of(remap.begin(), remap.end(),
                        [&](const auto& kv) {
                          return chunk_size(kv.second, kv.first).has_value();
                        }),
            "compaction remap points at a container missing the chunk");
  return remap;
}

}  // namespace hds

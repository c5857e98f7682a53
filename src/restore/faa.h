// FAA — Forward Assembly Area (Lillibridge, Eshghi & Bhagwat, FAST'13).
//
// Uses the recipe's perfect future knowledge: an M-byte assembly buffer is
// laid over the next M bytes of the stream; each container needed inside the
// area is read exactly once, filling every slot it can serve, then the area
// is flushed and slides forward. A container is re-read only if its chunks
// are spread across more than one area.
//
// Parallel fill (RestoreConfig::workers = N). The area's slots are grouped
// by container key in first-appearance order. A group is one fetch(), then a
// Container::read (no CRC: the container was checked as it loaded) plus
// memcpy into each of the group's disjoint slots. N fill workers claim
// groups in that order: N-1 helper threads and the calling thread. The
// calling thread also drains slots to the sink in stream order as soon as
// each slot's group is done, so the sink overlaps the fill; while the slot
// it needs is not ready it fills the next unclaimed group itself. N = 1 is
// this same loop with no helpers: the caller claims every group, in the
// serial read order, before it drains, so a sink that blocks cannot hold up
// the fill. The groups are the reads a serial pass makes, so every
// RestoreStats field is identical at any N.
//
// With N > 1 the fetcher is called from N threads at once and must allow
// it (ContainerStore reads and ActiveContainerPool::fetch do, while no
// backup runs). The sink is only ever called on the calling thread. An
// exception from the sink or from any worker's fetch stops and joins every
// helper before restore() rethrows it.
#pragma once

#include "restore/restorer.h"

namespace hds {

class FaaRestore final : public RestorePolicy {
 public:
  explicit FaaRestore(const RestoreConfig& config)
      : area_bytes_(config.memory_budget), workers_(config.workers) {}

  RestoreStats restore(std::span<const ChunkLoc> stream,
                       ContainerFetcher& fetcher,
                       const ChunkSink& sink) override;
  void observe(obs::Tracer* tracer, obs::OpRecorder* profile) override {
    tracer_ = tracer;
    profile_ = profile;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "faa";
  }

 private:
  std::size_t area_bytes_;
  std::size_t workers_;
  obs::Tracer* tracer_ = nullptr;
  obs::OpRecorder* profile_ = nullptr;
};

}  // namespace hds

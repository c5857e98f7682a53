// Crash-recovery reporting for persistent repositories (DESIGN.md §9).
//
// HiDeStore::open() replays the commit protocol in reverse: the MANIFEST
// journal names the newest fully committed version, and everything on disk
// that no committed record vouches for — an uncommitted state snapshot, a
// sealed-but-untagged archival container, atomic-writer temp files — is
// moved into `<repo>/quarantine/` rather than deleted, so an operator can
// inspect an aborted transaction before discarding it. The RecoveryReport
// is the audit trail of that pass; `hds_tool recover` prints it.
//
// Only a writer repairs. A reader (OpenMode::kReadOnly: list, restore,
// fsck) adopts the committed epoch the same way but moves, renames,
// removes and rewrites nothing: what it would have repaired may be a live
// writer's staged save (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "storage/container.h"
#include "storage/recipe.h"

namespace hds {

enum class OpenMode : std::uint8_t {
  kRepair,    // a writer: recover, repair and migrate the directory
  kReadOnly,  // a reader: open the committed epoch, touch no file
};

struct RecoveryReport {
  // A system was successfully reconstructed (false => unrecoverable repo;
  // the rest of the report says what was found).
  bool opened = false;
  // Any recovery action was taken (rollback, quarantine, rebuild, sweep).
  // false + opened means the repository was already clean.
  bool performed = false;

  std::uint64_t committed_epoch = 0;   // journal head after recovery
  VersionId committed_version = 0;     // latest restorable version
  // Versions present in an uncommitted state snapshot that were discarded
  // by rolling back to the journal head.
  std::uint32_t rolled_back_versions = 0;

  std::vector<std::string> quarantined;        // paths under quarantine/
  std::vector<ContainerId> orphan_containers;  // quarantined untagged IDs
  std::vector<ContainerId> missing_containers; // tagged but absent: loss
  // Active containers the committed state names whose file is absent:
  // loss of the hot set's chunks.
  std::vector<ContainerId> missing_active;
  std::vector<std::string> notes;              // human-readable detail

  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_json() const;
};

// Moves `file` into `<repo>/quarantine/` (suffixing on name collision) and
// records the action in `report`. Falls back to deleting the file if the
// rename fails, noting the loss. Returns the quarantine path.
std::filesystem::path quarantine_file(const std::filesystem::path& repo,
                                      const std::filesystem::path& file,
                                      RecoveryReport& report);

// Quarantines every `*.tmp` file directly in each of `dirs` (under `repo`'s
// quarantine/): by construction the atomic writer's unpublished partial
// writes from a crashed process.
void sweep_partial_writes(const std::filesystem::path& repo,
                          std::initializer_list<std::filesystem::path> dirs,
                          RecoveryReport& report);

}  // namespace hds

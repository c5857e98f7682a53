// MANIFEST — the record format of a repository directory's commit journal
// (DESIGN.md §9).
//
// The protocol over it lives in journal.h: stage() writes the new
// epoch-stamped file, commit() appends its CommitRecord and rewrites the
// MANIFEST through the atomic writer — the rename that publishes the new
// MANIFEST is the commit point — and abort() drops the staged file.
// Anything on disk that a committed record does not vouch for — a state
// file with a newer epoch, archival containers past the committed ID
// watermark, stray temp files — is an aborted transaction that recovery
// quarantines on open.
//
// Records are kept newest-last and capped, so the journal stays a few
// hundred bytes while still recording recent commit history for
// `hds_tool recover` and the fsck `manifest_commit` invariant.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "storage/container.h"
#include "storage/recipe.h"

namespace hds {

// One committed repository version. `epoch` increases by exactly one per
// commit and names the committed file (`<stem>.<epoch>.hds`); `store_next`
// is the archival container ID watermark (every committed container has a
// smaller ID); `state_size` is the committed file's size. `state_crc` is
// its whole-file CRC, which for every sealed file is the residue
// (kSealResidue): written, never compared; the journal checks the file's
// seal instead (journal.h).
struct CommitRecord {
  std::uint64_t epoch = 0;
  VersionId next_version = 1;
  VersionId oldest_version = 1;
  ContainerId store_next = 1;
  std::uint64_t state_size = 0;
  std::uint32_t state_crc = 0;  // CRC-32 of the whole (sealed) file
};

struct Manifest {
  static constexpr const char* kFileName = "MANIFEST";
  static constexpr std::size_t kMaxRecords = 8;

  std::vector<CommitRecord> records;  // oldest first; back() is the head

  [[nodiscard]] const CommitRecord* head() const noexcept {
    return records.empty() ? nullptr : &records.back();
  }

  // Appends a record, pruning the oldest past kMaxRecords.
  void append(const CommitRecord& record);

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  // nullopt on any truncation, CRC mismatch, or non-monotonic epochs.
  static std::optional<Manifest> deserialize(
      std::span<const std::uint8_t> bytes);
};

// kIoError: the file exists but the OS refused to hand over its bytes
// (open-after-stat race, EIO, permission change). Distinct from kCorrupt,
// which means the bytes were read fine but fail CRC/format validation —
// callers that quarantine corrupt journals should treat both as fatal, but
// the operator remedy differs (check the disk vs. restore the journal).
enum class ManifestStatus { kOk, kMissing, kIoError, kCorrupt };

// Reads `<dir>/MANIFEST`. On kOk, `out` holds the journal; otherwise `out`
// is left empty.
ManifestStatus load_manifest(const std::filesystem::path& dir, Manifest& out);

// Atomically rewrites `<dir>/MANIFEST`. Throws durable::WriteError.
void store_manifest(const std::filesystem::path& dir,
                    const Manifest& manifest);

}  // namespace hds

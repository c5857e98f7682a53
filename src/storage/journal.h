// The commit protocol of a repository directory (DESIGN.md §9) — the one
// module that knows how a committed file is named, staged, committed,
// aborted and found again after a crash.
//
// A directory commits one kind of file, named by its stem: `state` for a
// HiDeStore (a single-shard repository root, a shard, a serve tenant) and
// `router` for the root of a sharded repository. Each save writes a new
// epoch-stamped file `<stem>.<epoch>.hds` beside the committed one:
//   * stage()  publishes the file for the next epoch atomically and returns
//              the CommitRecord that commits it;
//   * commit() appends that record to the directory's MANIFEST — the
//              rename that publishes the MANIFEST is the commit point — and
//              then removes every other `<stem>.*.hds` file;
//   * abort()  removes the staged file (the committed one was never
//              touched).
// The journal owns the seal of the files it commits: stage() seals the
// body (common/byte_io.h), and open() checks each candidate's seal once and
// hands the parser the body. open() walks the MANIFEST records newest first
// and adopts the first file the journal vouches for (size, seal, and a
// header epoch equal to the epoch in its name) that also parses. With no
// usable record it adopts the newest parseable file and rebuilds the
// journal. Every other file is debris: an older epoch is superseded and
// removed (quarantined instead when no record vouched for the adopted
// file), a newer one is an uncommitted save and is quarantined.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/byte_io.h"
#include "storage/manifest.h"
#include "storage/recovery.h"

namespace hds::journal {

inline constexpr std::string_view kStateStem = "state";
inline constexpr std::string_view kRouterStem = "router";

// `<stem>.<epoch>.hds`.
[[nodiscard]] std::string file_name(std::string_view stem,
                                    std::uint64_t epoch);
// The epoch of a `<stem>.<epoch>.hds` name: decimal digits only, no leading
// zero, nonzero, fitting 64 bits. nullopt for any other name.
[[nodiscard]] std::optional<std::uint64_t> parse_file_name(
    std::string_view stem, std::string_view name);
// Every `<stem>.<epoch>.hds` file in `dir`, by epoch.
[[nodiscard]] std::map<std::uint64_t, std::filesystem::path> files(
    const std::filesystem::path& dir, std::string_view stem);

// What a file format's header says without a full parse: the epoch the
// file was staged at and the version watermark it would commit. A peek
// reads only a prefix, so it takes a body or a whole (even torn) file.
struct FileHeader {
  std::uint64_t epoch = 0;
  VersionId next_version = 0;
};
using PeekHeader =
    std::optional<FileHeader> (*)(std::span<const std::uint8_t> bytes);

// Seals `body` and writes it to `<dir>/<stem>.<record.epoch>.hds` through
// the atomic writer; returns `record` stamped with the file's size and
// `state_crc` = kSealResidue. Throws durable::WriteError; the committed
// file is never touched.
CommitRecord stage(const std::filesystem::path& dir, std::string_view stem,
                   CommitRecord record, ByteWriter body);
// Appends `record` to `<dir>/MANIFEST` (restarting a foreign, corrupt or
// future-dated journal), then removes every other `<stem>.*.hds` file.
// Passes the crash point "commit" first: a writer parked or killed there
// has staged everything and committed nothing. Throws durable::WriteError.
void commit(const std::filesystem::path& dir, std::string_view stem,
            const CommitRecord& record);
// Removes the file stage() published for `record`.
void abort(const std::filesystem::path& dir, std::string_view stem,
           const CommitRecord& record);

// True when the file for `record`'s epoch (`<stem>.<epoch>.hds`, or a
// pre-epoch state file, see open()) is the file `record` commits: the
// recorded size, an intact seal, and its header carries the record's
// epoch. `state_crc` is never compared: every sealed file's whole-file CRC
// is the residue, and a save that changed nothing stages a file of the
// same size, so only the epoch tells two such files apart.
[[nodiscard]] bool holds_committed(const std::filesystem::path& dir,
                                   std::string_view stem,
                                   const CommitRecord& record,
                                   PeekHeader peek);

// Parses a candidate file's body (its seal already checked and stripped)
// and keeps it if it parses. Returns the record that commits it (epoch,
// version range, container watermark; size and CRC are filled in by
// open()), or nullopt when the body does not parse.
using Adopt = std::function<std::optional<CommitRecord>(
    std::span<const std::uint8_t> body)>;

// Finds the committed `<stem>` file, hands it to `adopt`, then repairs the
// directory (see the header comment) and narrates every repair in
// `report`. Nothing is written or moved before `adopt` has accepted a file,
// so an exception from `adopt` leaves the directory unchanged. Returns the
// adopted file's record, or nullopt when no file parses. `*vouched`
// (optional) says whether a MANIFEST record vouched for the adopted file:
// only then is an older file known to be superseded. Under
// OpenMode::kReadOnly the same file is adopted and nothing is repaired.
//
// `roll_forward` is a record committed by an outer journal (a sharded
// root's, for a shard): when this journal's head is older and the staged
// file is the one the record commits, the record joins the journal before
// the walk.
//
// For the state stem, a pre-epoch `state.hds` or `state.prev.hds` (the
// layout in which a save moved the committed file aside until its MANIFEST
// append landed) is a candidate under the epoch its header names; a file
// whose header cannot be read is quarantined. The adopted file takes its
// epoch-stamped name, or is used in place when the rename fails.
std::optional<CommitRecord> open(const std::filesystem::path& dir,
                                 std::string_view stem, PeekHeader peek,
                                 const Adopt& adopt, RecoveryReport& report,
                                 const CommitRecord* roll_forward = nullptr,
                                 OpenMode mode = OpenMode::kRepair,
                                 bool* vouched = nullptr);

// True when `dir` holds single-store state: a `state.<epoch>.hds` file or a
// pre-epoch `state.hds` / `state.prev.hds`.
[[nodiscard]] bool holds_single_store_state(const std::filesystem::path& dir);

}  // namespace hds::journal

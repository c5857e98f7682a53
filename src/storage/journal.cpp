#include "storage/journal.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/byte_io.h"
#include "common/parse.h"
#include "storage/durable.h"

namespace hds::journal {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kSuffix = ".hds";
// The pre-epoch single-store layout: the committed state, and its
// rename-aside copy while a save was in flight.
constexpr std::string_view kLegacyStateFiles[] = {"state.hds",
                                                  "state.prev.hds"};

// The body of the file `record` commits, when `bytes` is that file: the
// recorded size, an intact seal, and a header naming the record's epoch.
// A sealed file's whole-file CRC is always the residue, so the seal check
// is the only CRC pass, and a save that changed nothing stages a file of
// the same size: only the epoch tells two such files apart.
std::optional<std::span<const std::uint8_t>> committed_body(
    const CommitRecord& record, std::span<const std::uint8_t> bytes,
    PeekHeader peek) {
  if (bytes.size() != record.state_size) return std::nullopt;
  const auto body = unseal(bytes);
  if (!body) return std::nullopt;
  const auto header = peek(*body);
  if (!header || header->epoch != record.epoch) return std::nullopt;
  return body;
}

// The candidates for a directory's committed file: every
// `<stem>.<epoch>.hds` and, for the state stem, a pre-epoch `state.hds` or
// `state.prev.hds` under the epoch its header names. A pre-epoch file with
// an unreadable header, or whose epoch already has a file, is debris.
struct Candidates {
  std::map<std::uint64_t, fs::path> files;
  std::vector<fs::path> debris;
};

Candidates find_candidates(const fs::path& dir, std::string_view stem,
                           PeekHeader peek) {
  Candidates found{files(dir, stem), {}};
  if (stem != kStateStem) return found;
  for (const std::string_view legacy : kLegacyStateFiles) {
    const fs::path path = dir / legacy;
    const auto bytes = durable::read_file(path);
    if (!bytes) continue;  // absent (or unreadable: left alone, as MANIFEST)
    const auto header = peek(*bytes);
    if (!header || !found.files.emplace(header->epoch, path).second) {
      found.debris.push_back(path);
    }
  }
  return found;
}

}  // namespace

std::string file_name(std::string_view stem, std::uint64_t epoch) {
  return std::string(stem) + "." + std::to_string(epoch) +
         std::string(kSuffix);
}

std::optional<std::uint64_t> parse_file_name(std::string_view stem,
                                             std::string_view name) {
  if (name.size() <= stem.size() + 1 + kSuffix.size() ||
      !name.starts_with(stem) || name[stem.size()] != '.' ||
      !name.ends_with(kSuffix)) {
    return std::nullopt;
  }
  const auto digits = name.substr(
      stem.size() + 1, name.size() - stem.size() - 1 - kSuffix.size());
  // One spelling per epoch: "state.07.hds" is not epoch 7's file.
  if (digits.front() == '0') return std::nullopt;
  return parse_uint(digits);
}

std::map<std::uint64_t, fs::path> files(const fs::path& dir,
                                        std::string_view stem) {
  std::map<std::uint64_t, fs::path> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (const auto epoch =
            parse_file_name(stem, entry.path().filename().string())) {
      found.emplace(*epoch, entry.path());
    }
  }
  return found;
}

CommitRecord stage(const fs::path& dir, std::string_view stem,
                   CommitRecord record, ByteWriter body) {
  body.seal();
  durable::atomic_write_file(dir / file_name(stem, record.epoch),
                             body.bytes());
  record.state_size = body.bytes().size();
  record.state_crc = kSealResidue;
  return record;
}

void commit(const fs::path& dir, std::string_view stem,
            const CommitRecord& record) {
  durable::CrashInjector::crash_point("commit");
  Manifest manifest;
  if (load_manifest(dir, manifest) != ManifestStatus::kOk ||
      (manifest.head() != nullptr &&
       manifest.head()->epoch >= record.epoch)) {
    // Foreign, corrupt or future-dated journal: restart it rather than
    // publish a record the existing history contradicts.
    manifest.records.clear();
  }
  manifest.append(record);
  store_manifest(dir, manifest);  // the commit point
  // Superseded files; best effort, open() removes any that survive.
  for (const auto& [epoch, path] : files(dir, stem)) {
    if (epoch == record.epoch) continue;
    std::error_code ec;
    fs::remove(path, ec);
  }
}

void abort(const fs::path& dir, std::string_view stem,
           const CommitRecord& record) {
  std::error_code ec;
  fs::remove(dir / file_name(stem, record.epoch), ec);
}

bool holds_committed(const fs::path& dir, std::string_view stem,
                     const CommitRecord& record, PeekHeader peek) {
  const auto found = find_candidates(dir, stem, peek).files;
  const auto it = found.find(record.epoch);
  if (it == found.end()) return false;
  const auto bytes = durable::read_file(it->second);
  return bytes && committed_body(record, *bytes, peek);
}

std::optional<CommitRecord> open(const fs::path& dir, std::string_view stem,
                                 PeekHeader peek, const Adopt& adopt,
                                 RecoveryReport& report,
                                 const CommitRecord* roll_forward,
                                 OpenMode mode, bool* vouched) {
  Manifest manifest;
  const ManifestStatus status = load_manifest(dir, manifest);
  if (status == ManifestStatus::kIoError) {
    // The bytes may still be fine on disk: don't quarantine over a
    // transient read failure, just recover without the journal.
    report.notes.push_back("MANIFEST read failed (I/O); ignoring journal");
  }
  const Candidates found = find_candidates(dir, stem, peek);
  const auto read = [&](std::uint64_t epoch) {
    const auto it = found.files.find(epoch);
    return it == found.files.end() ? std::nullopt
                                   : durable::read_file(it->second);
  };

  // 0. Roll-forward: a record committed elsewhere (the router's, for a
  // shard) that this journal has not caught up with joins it, provided
  // the staged file is the one it commits. (A journal that did not load is
  // empty here.) That file is then the walk's first candidate, and is not
  // read or checked again.
  std::optional<std::vector<std::uint8_t>> rolled;
  std::optional<std::span<const std::uint8_t>> rolled_body;
  if (roll_forward != nullptr &&
      (manifest.head() == nullptr ||
       manifest.head()->epoch < roll_forward->epoch)) {
    rolled = read(roll_forward->epoch);
    if (rolled) rolled_body = committed_body(*roll_forward, *rolled, peek);
    if (rolled_body) manifest.append(*roll_forward);
  }
  const bool rolled_forward = rolled_body.has_value();
  const CommitRecord* head = manifest.head();

  // 1. The newest record whose file the journal vouches for and parses.
  std::optional<CommitRecord> adopted;
  for (auto it = manifest.records.rbegin();
       it != manifest.records.rend() && !adopted; ++it) {
    std::optional<std::vector<std::uint8_t>> bytes;
    auto body = std::exchange(rolled_body, std::nullopt);
    if (!body && (bytes = read(it->epoch))) {
      body = committed_body(*it, *bytes, peek);
    }
    if (body && adopt(*body)) adopted = *it;
  }
  const bool from_journal = adopted.has_value();
  if (vouched != nullptr) *vouched = from_journal;
  // 2. No usable record: the newest file that parses and whose header names
  // the epoch in its file name.
  for (auto it = found.files.rbegin(); it != found.files.rend() && !adopted;
       ++it) {
    const auto bytes = read(it->first);
    const auto body = bytes ? unseal(*bytes) : std::nullopt;
    const auto header = body ? peek(*body) : std::nullopt;
    if (!header || header->epoch != it->first) continue;
    if (auto record = adopt(*body)) {
      record->state_size = bytes->size();
      record->state_crc = kSealResidue;
      adopted = record;
    }
  }

  // What is committed now; with nothing recoverable, what the journal knew.
  if (const CommitRecord* r = adopted ? &*adopted : head) {
    report.committed_epoch = r->epoch;
    report.committed_version = r->next_version - 1;
  }
  if (mode == OpenMode::kReadOnly) return adopted;

  // 3. Repairs, now that the outcome is known. A superseded file is
  // deleted only when the journal vouches for the adopted one; without
  // the journal the older file may be the committed one, so it is kept in
  // quarantine.
  if (status == ManifestStatus::kCorrupt) {
    quarantine_file(dir, dir / Manifest::kFileName, report);
    report.notes.push_back("MANIFEST unreadable; quarantined");
  }
  for (const auto& path : found.debris) {
    quarantine_file(dir, path, report);
    report.notes.push_back("quarantined unreadable " +
                           path.filename().string());
  }
  for (const auto& [epoch, path] : found.files) {
    if (adopted && epoch == adopted->epoch) continue;
    const std::string name = path.filename().string();
    if (adopted && epoch < adopted->epoch && from_journal) {
      std::error_code ec;
      fs::remove(path, ec);
      report.performed = true;
      report.notes.push_back("removed superseded " + name);
      continue;
    }
    if (adopted && epoch > adopted->epoch) {
      const auto bytes = read(epoch);
      const auto header = bytes ? peek(*bytes) : std::nullopt;
      if (header && header->next_version > adopted->next_version) {
        report.rolled_back_versions =
            std::max(report.rolled_back_versions,
                     header->next_version - adopted->next_version);
      }
    }
    quarantine_file(dir, path, report);
    const char* why = !adopted                 ? "unreadable "
                      : epoch < adopted->epoch ? "superseded "
                                               : "uncommitted ";
    report.notes.push_back("quarantined " + (why + name));
  }
  if (!adopted) return std::nullopt;
  // A pre-epoch file takes its epoch-stamped name. On storage that refuses
  // the rename (a read-only snapshot) it is used where it lies.
  const fs::path& from = found.files.at(adopted->epoch);
  if (const fs::path to = dir / file_name(stem, adopted->epoch); from != to) {
    const std::string what =
        from.filename().string() + " to " + to.filename().string();
    try {
      durable::atomic_rename(from, to);
      report.performed = true;
      report.notes.push_back("migrated " + what);
    } catch (const durable::WriteError& e) {
      report.notes.push_back("opened in place; could not migrate " + what +
                             ": " + e.what());
    }
  }

  // 4. Leave a journal whose head is the adopted file, so the next open
  // finds nothing to repair.
  if (rolled_forward || !from_journal || head->epoch != adopted->epoch) {
    Manifest rewritten;
    if (from_journal) {
      for (const CommitRecord& r : manifest.records) {
        if (r.epoch <= adopted->epoch) rewritten.append(r);
      }
      report.notes.push_back(
          (head->epoch == adopted->epoch
               ? "rolled forward to epoch "
               : "journal head unusable; fell back to epoch ") +
          std::to_string(adopted->epoch));
    } else {
      rewritten.append(*adopted);
      report.notes.push_back("rebuilt MANIFEST at epoch " +
                             std::to_string(adopted->epoch));
    }
    report.performed = true;
    try {
      store_manifest(dir, rewritten);
    } catch (const durable::WriteError& e) {
      report.notes.push_back(std::string("could not rewrite MANIFEST: ") +
                             e.what());
    }
  }
  return adopted;
}

bool holds_single_store_state(const fs::path& dir) {
  std::error_code ec;
  for (const std::string_view name : kLegacyStateFiles) {
    if (fs::exists(dir / name, ec)) return true;
  }
  return !files(dir, kStateStem).empty();
}

}  // namespace hds::journal

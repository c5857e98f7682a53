#include "storage/recovery.h"

#include <sstream>
#include <system_error>

namespace hds {

namespace {

void json_string(std::ostringstream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xF]
              << "0123456789abcdef"[c & 0xF];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

}  // namespace

std::string RecoveryReport::to_text() const {
  std::ostringstream out;
  if (!opened) {
    out << "recovery: repository could not be opened\n";
  } else if (!performed) {
    out << "recovery: clean (nothing to do)\n";
  } else {
    out << "recovery: repaired\n";
  }
  out << "  committed epoch " << committed_epoch << " (latest version "
      << committed_version << ")\n";
  if (rolled_back_versions > 0) {
    out << "  rolled back " << rolled_back_versions
        << " uncommitted version(s)\n";
  }
  for (const auto& path : quarantined) {
    out << "  quarantined " << path << "\n";
  }
  if (!orphan_containers.empty()) {
    out << "  orphan containers:";
    for (const ContainerId id : orphan_containers) out << " " << id;
    out << "\n";
  }
  if (!missing_containers.empty()) {
    out << "  MISSING containers (data loss):";
    for (const ContainerId id : missing_containers) out << " " << id;
    out << "\n";
  }
  if (!missing_active.empty()) {
    out << "  MISSING active containers (data loss):";
    for (const ContainerId id : missing_active) out << " " << id;
    out << "\n";
  }
  for (const auto& note : notes) {
    out << "  note: " << note << "\n";
  }
  return out.str();
}

std::string RecoveryReport::to_json() const {
  std::ostringstream out;
  out << "{\"opened\":" << (opened ? "true" : "false")
      << ",\"performed\":" << (performed ? "true" : "false")
      << ",\"committed_epoch\":" << committed_epoch
      << ",\"committed_version\":" << committed_version
      << ",\"rolled_back_versions\":" << rolled_back_versions;
  out << ",\"quarantined\":[";
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    if (i > 0) out << ",";
    json_string(out, quarantined[i]);
  }
  out << "],\"orphan_containers\":[";
  for (std::size_t i = 0; i < orphan_containers.size(); ++i) {
    if (i > 0) out << ",";
    out << orphan_containers[i];
  }
  out << "],\"missing_containers\":[";
  for (std::size_t i = 0; i < missing_containers.size(); ++i) {
    if (i > 0) out << ",";
    out << missing_containers[i];
  }
  out << "],\"missing_active\":[";
  for (std::size_t i = 0; i < missing_active.size(); ++i) {
    if (i > 0) out << ",";
    out << missing_active[i];
  }
  out << "],\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) out << ",";
    json_string(out, notes[i]);
  }
  out << "]}";
  return out.str();
}

std::filesystem::path quarantine_file(const std::filesystem::path& repo,
                                      const std::filesystem::path& file,
                                      RecoveryReport& report) {
  const auto qdir = repo / "quarantine";
  std::error_code ec;
  std::filesystem::create_directories(qdir, ec);
  auto target = qdir / file.filename();
  for (int suffix = 1; std::filesystem::exists(target, ec); ++suffix) {
    target = qdir / (file.filename().string() + "." + std::to_string(suffix));
  }
  std::filesystem::rename(file, target, ec);
  if (ec) {
    // Cross-device or permission trouble: removing still leaves the repo
    // consistent, but say that the evidence is gone.
    std::filesystem::remove(file, ec);
    report.notes.push_back("could not quarantine " + file.string() +
                           "; removed instead");
  }
  report.quarantined.push_back(target.string());
  report.performed = true;
  return target;
}

void sweep_partial_writes(const std::filesystem::path& repo,
                          std::initializer_list<std::filesystem::path> dirs,
                          RecoveryReport& report) {
  std::size_t swept = 0;
  for (const auto& dir : dirs) {
    std::error_code ec;
    std::vector<std::filesystem::path> debris;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".tmp") {
        debris.push_back(entry.path());
      }
    }
    for (const auto& path : debris) quarantine_file(repo, path, report);
    swept += debris.size();
  }
  if (swept > 0) {
    report.notes.push_back("swept " + std::to_string(swept) +
                           " partial write(s) (*.tmp)");
  }
}

}  // namespace hds

// backup_directory: a miniature backup tool over a real directory tree.
//
// Walks a directory, concatenates its regular files into one logical
// stream (Repository::snapshot: a tiny path+size header per file, so
// restores are verifiable), deduplicates it into a *file-backed* container
// store, and verifies the restore. Running it repeatedly against a changing directory
// demonstrates cross-version dedup exactly as a nightly backup job would.
//
// Usage: backup_directory [dir-to-back-up] [store-dir]
//   defaults: ./src  /tmp/hds_backup_store
#include <cstdio>
#include <filesystem>

#include "backup/pipeline.h"
#include "chunking/chunk_stream.h"
#include "chunking/tttd.h"
#include "index/full_index.h"
#include "service/repository.h"

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  using namespace hds;

  const fs::path source = argc > 1 ? argv[1] : "src";
  const fs::path store_dir =
      argc > 2 ? argv[2] : fs::temp_directory_path() / "hds_backup_store";
  if (!fs::is_directory(source)) {
    std::fprintf(stderr, "not a directory: %s\n", source.string().c_str());
    return 1;
  }

  std::printf("backing up %s into %s\n", source.string().c_str(),
              store_dir.string().c_str());
  const auto snapshot = Repository::snapshot(source);
  std::printf("snapshot: %.2f MB\n",
              static_cast<double>(snapshot.size()) / (1 << 20));

  // DDFS-style exact dedup over a real on-disk container store. Backing up
  // the same tree twice shows the dedup at work: the second version stores
  // next to nothing.
  DedupPipeline pipeline("backup-tool", std::make_unique<FullIndex>(),
                         std::make_unique<NoRewrite>(),
                         std::make_unique<FileContainerStore>(store_dir));
  TttdChunker chunker;
  for (int round = 1; round <= 2; ++round) {
    const auto stream = chunk_bytes(chunker, snapshot);
    const auto report = pipeline.backup(stream);
    std::printf("backup #%d: %zu chunks, stored %.2f MB (%.1f%% new)\n",
                round, static_cast<std::size_t>(report.logical_chunks),
                static_cast<double>(report.stored_bytes) / (1 << 20),
                report.logical_bytes == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(report.stored_bytes) /
                          static_cast<double>(report.logical_bytes));
  }

  // Verify the restore byte-for-byte against the live directory snapshot.
  std::vector<std::uint8_t> restored;
  (void)pipeline.restore(2, [&](const ChunkLoc&,
                                std::span<const std::uint8_t> bytes) {
    restored.insert(restored.end(), bytes.begin(), bytes.end());
  });
  const bool exact = restored == snapshot;
  std::printf("restore: %s (%zu containers on disk)\n",
              exact ? "byte-exact" : "MISMATCH",
              pipeline.store().container_count());
  return exact ? 0 : 1;
}

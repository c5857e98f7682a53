// Seeded input generator for the benchmark. The program under test sees
// only what this writes: a directory tree (nightly, restore_all) or one
// file's bytes (tenants), evolved version by version with clustered edits.
//
// Everything is a pure function of the seed. Digests are a private 128-bit
// hash, independent of the repository's own SHA-1/CRC code, so a bug there
// cannot hide a wrong restore.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  // Uniform in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  double unit();  // [0, 1)
  void fill(std::uint8_t* dst, std::size_t len);

 private:
  std::uint64_t s_[4];
};

struct Digest {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Digest&) const = default;
};

// Streaming digest; equal byte streams give equal digests however they are
// split into update() calls.
class Hasher {
 public:
  void update(std::span<const std::uint8_t> bytes);
  void update(std::string_view text);
  [[nodiscard]] Digest finish() const;

 private:
  void mix(std::uint64_t word);
  std::uint64_t a_ = 0x243f6a8885a308d3ull;
  std::uint64_t b_ = 0x13198a2e03707344ull;
  std::uint64_t len_ = 0;
  std::uint8_t tail_[8] = {};
  std::size_t tail_len_ = 0;
};

[[nodiscard]] Digest digest_of(std::span<const std::uint8_t> bytes);
[[nodiscard]] Digest digest_of_file(const std::filesystem::path& path);

// Applies `frac` × size bytes of clustered edits to `data`: runs of 2-32 KiB
// overwritten with fresh bytes (70%), inserted (15%) or deleted (15%).
void edit_buffer(Rng& rng, std::vector<std::uint8_t>& data, double frac);

// Rolls `data` forward: drops its oldest `frac` × size bytes and appends as
// many fresh ones, so no region is ever rewritten (see roll()).
void roll_buffer(Rng& rng, std::vector<std::uint8_t>& data, double frac);

// A kernel-like source tree: many small files, some medium ones and a few
// large ones, all at depth two ("dNN/fNNNNNN.c"), so plain string order is
// the order hds_tool's sorted directory walk produces.
class Tree {
 public:
  // Without `large_files` the bytes are spread over medium and small files
  // only, so rolling it changes about the same share every version.
  Tree(std::uint64_t seed, std::uint64_t total_bytes, bool large_files = true);

  // Next version: about `frac` of the bytes edited in clustered runs, plus
  // `churn_files` small files added and as many removed.
  void evolve(double frac, int churn_files);

  // Next version of a rolling tree: the first files in path order, about
  // `frac` of the bytes, are removed and as many new bytes are added as new
  // files that sort last. Nothing is edited in place, so a chunk that
  // leaves the stream never comes back.
  void roll(double frac);

  // Brings `dir` in line with the current version (first call writes every
  // file; later calls rewrite changed files and delete removed ones).
  void write(const std::filesystem::path& dir);

  // hds_tool's directory snapshot of this tree when backed up as `root`:
  // per file "<root>/<rel>\n<size>\n" followed by its bytes, in path order.
  [[nodiscard]] std::vector<std::uint8_t> serialize(
      const std::string& root) const;
  [[nodiscard]] Digest stream_digest(const std::string& root) const;
  [[nodiscard]] std::uint64_t stream_size(const std::string& root) const;

  [[nodiscard]] const std::map<std::string, std::vector<std::uint8_t>>&
  files() const noexcept {
    return files_;
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;

 private:
  std::string new_path(bool last);
  void add_file(std::uint64_t size, bool last = false);

  Rng rng_;
  std::uint64_t next_file_ = 0;
  std::size_t dirs_ = 16;
  std::map<std::string, std::vector<std::uint8_t>> files_;
  std::set<std::string> dirty_;
  std::set<std::string> removed_;
  bool written_ = false;
};

// The generator's self-check: the same seed gives the same digest and a
// different seed a different one, over two versions of a small tree.
// Returns an empty string on success, else what failed.
[[nodiscard]] std::string generator_selfcheck(std::uint64_t seed);

}  // namespace perfbench

#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;

namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix(seed);
}

// xoshiro256**.
std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

void Rng::fill(std::uint8_t* dst, std::size_t len) {
  while (len >= 8) {
    const std::uint64_t w = next();
    std::memcpy(dst, &w, 8);
    dst += 8;
    len -= 8;
  }
  if (len > 0) {
    const std::uint64_t w = next();
    std::memcpy(dst, &w, len);
  }
}

void Hasher::mix(std::uint64_t w) {
  a_ = rotl((a_ ^ w) * 0x9fb21c651e98df25ull, 29);
  b_ = rotl(b_ + w * 0xc2b2ae3d27d4eb4full, 31) * 0x165667b19e3779f9ull;
}

void Hasher::update(std::span<const std::uint8_t> bytes) {
  len_ += bytes.size();
  std::size_t i = 0;
  if (tail_len_ > 0) {
    while (tail_len_ < 8 && i < bytes.size()) tail_[tail_len_++] = bytes[i++];
    if (tail_len_ < 8) return;
    std::uint64_t w = 0;
    std::memcpy(&w, tail_, 8);
    mix(w);
    tail_len_ = 0;
  }
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    mix(w);
  }
  while (i < bytes.size()) tail_[tail_len_++] = bytes[i++];
}

void Hasher::update(std::string_view text) {
  update(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()));
}

Digest Hasher::finish() const {
  Hasher h = *this;
  std::uint64_t w = 0;
  std::memcpy(&w, h.tail_, h.tail_len_);
  h.mix(w ^ (static_cast<std::uint64_t>(h.tail_len_) << 56));
  h.mix(len_);
  std::uint64_t sa = h.a_ ^ h.b_;
  std::uint64_t sb = h.b_ + rotl(h.a_, 17);
  return {splitmix(sa), splitmix(sb)};
}

Digest digest_of(std::span<const std::uint8_t> bytes) {
  Hasher h;
  h.update(bytes);
  return h.finish();
}

Digest digest_of_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  Hasher h;
  std::vector<std::uint8_t> buf(1 << 20);
  while (in) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    h.update(std::span(buf.data(), static_cast<std::size_t>(in.gcount())));
  }
  return h.finish();
}

void edit_buffer(Rng& rng, std::vector<std::uint8_t>& data, double frac) {
  auto budget = static_cast<std::int64_t>(frac * static_cast<double>(data.size()));
  while (budget > 0) {
    const std::size_t run = rng.range(2048, 32768);
    const double kind = rng.unit();
    if (data.size() < 2 * run) {
      // Small files: rewrite wholesale.
      rng.fill(data.data(), data.size());
      budget -= static_cast<std::int64_t>(std::max<std::size_t>(data.size(), 1));
      continue;
    }
    const std::size_t at = rng.range(0, data.size() - run);
    if (kind < 0.70) {
      rng.fill(data.data() + at, run);
    } else if (kind < 0.85) {
      std::vector<std::uint8_t> fresh(run);
      rng.fill(fresh.data(), run);
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(at), fresh.begin(),
                  fresh.end());
    } else {
      data.erase(data.begin() + static_cast<std::ptrdiff_t>(at),
                 data.begin() + static_cast<std::ptrdiff_t>(at + run));
    }
    budget -= static_cast<std::int64_t>(run);
  }
}

void roll_buffer(Rng& rng, std::vector<std::uint8_t>& data, double frac) {
  const auto n = static_cast<std::size_t>(frac * static_cast<double>(data.size()));
  data.erase(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(n));
  const std::size_t old = data.size();
  data.resize(old + n);
  rng.fill(data.data() + old, n);
}

Tree::Tree(std::uint64_t seed, std::uint64_t total_bytes, bool large_files)
    : rng_(seed) {
  dirs_ = std::clamp<std::size_t>(total_bytes >> 21, 4, 64);
  // ~40% in four large files, ~25% in medium files (64-512 KiB), the rest in
  // many small ones (log-uniform 512 B .. 32 KiB).
  const std::uint64_t large = large_files ? total_bytes * 40 / 100 : 0;
  const std::uint64_t medium = total_bytes * (large_files ? 25 : 40) / 100;
  std::uint64_t small = total_bytes - large - medium;
  if (large > 0) {
    for (int i = 0; i < 4; ++i) add_file(large / 4 + rng_.range(0, 4096));
  }
  for (std::uint64_t got = 0; got < medium;) {
    const std::uint64_t size = rng_.range(64 << 10, 512 << 10);
    add_file(size);
    got += size;
  }
  while (small > 0) {
    const auto size = std::min<std::uint64_t>(
        small, static_cast<std::uint64_t>(512.0 * std::pow(64.0, rng_.unit())));
    add_file(size);
    small -= size;
  }
}

// New files land in a random "dNN" directory, or with `last` in "e00",
// which sorts after every "dNN" (and, by index, after earlier additions).
std::string Tree::new_path(bool last) {
  char buf[32];
  const std::size_t dir = last ? 0 : rng_.range(0, dirs_ - 1);
  std::snprintf(buf, sizeof buf, "%c%02zu/f%06llu.c", last ? 'e' : 'd', dir,
                static_cast<unsigned long long>(next_file_++));
  return buf;
}

void Tree::add_file(std::uint64_t size, bool last) {
  const std::string path = new_path(last);
  std::vector<std::uint8_t> bytes(size);
  rng_.fill(bytes.data(), bytes.size());
  files_[path] = std::move(bytes);
  dirty_.insert(path);
  removed_.erase(path);
}

std::uint64_t Tree::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [path, bytes] : files_) total += bytes.size();
  return total;
}

void Tree::evolve(double frac, int churn_files) {
  // Removals first, among files smaller than 64 KiB, so the big files that
  // carry most edits live on.
  for (int i = 0; i < churn_files; ++i) {
    std::vector<const std::string*> small;
    for (const auto& [path, bytes] : files_) {
      if (bytes.size() < (64 << 10)) small.push_back(&path);
    }
    if (small.size() < 2) break;
    const std::string victim = *small[rng_.range(0, small.size() - 1)];
    files_.erase(victim);
    dirty_.erase(victim);
    removed_.insert(victim);
  }
  for (int i = 0; i < churn_files; ++i) add_file(rng_.range(1024, 16384));

  // Edits land in files picked in proportion to their size, each file
  // getting a clustered share of the byte budget.
  const std::uint64_t total = total_bytes();
  auto budget = static_cast<std::int64_t>(frac * static_cast<double>(total));
  while (budget > 0) {
    std::uint64_t pick = rng_.range(0, total - 1);
    auto it = files_.begin();
    for (; it != files_.end(); ++it) {
      if (pick < it->second.size()) break;
      pick -= it->second.size();
    }
    if (it == files_.end()) --it;
    auto& bytes = it->second;
    const double share = std::min(
        1.0, static_cast<double>(std::min<std::int64_t>(budget, 65536)) /
                 static_cast<double>(std::max<std::size_t>(bytes.size(), 1)));
    const std::size_t before = bytes.size();
    edit_buffer(rng_, bytes, share);
    dirty_.insert(it->first);
    budget -= static_cast<std::int64_t>(
        std::max<double>(share * static_cast<double>(before), 1.0));
  }
}

void Tree::roll(double frac) {
  const std::uint64_t target =
      static_cast<std::uint64_t>(frac * static_cast<double>(total_bytes()));
  std::uint64_t removed = 0;
  while (removed < target && files_.size() > 1) {
    const auto it = files_.begin();
    removed += it->second.size();
    dirty_.erase(it->first);
    removed_.insert(it->first);
    files_.erase(it);
  }
  for (std::uint64_t added = 0; added < removed;) {
    const auto size = std::min<std::uint64_t>(
        removed - added,
        static_cast<std::uint64_t>(4096.0 * std::pow(128.0, rng_.unit())));
    add_file(size, true);
    added += size;
  }
}

void Tree::write(const fs::path& dir) {
  if (!written_) {
    fs::remove_all(dir);
    dirty_.clear();
    for (const auto& [path, bytes] : files_) dirty_.insert(path);
    removed_.clear();
    written_ = true;
  }
  for (const auto& path : removed_) fs::remove(dir / path);
  for (const auto& path : dirty_) {
    const fs::path target = dir / path;
    fs::create_directories(target.parent_path());
    const auto& bytes = files_.at(path);
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("cannot write " + target.string());
  }
  dirty_.clear();
  removed_.clear();
}

namespace {

std::string header_for(const std::string& root, const std::string& rel,
                       std::size_t size) {
  return root + "/" + rel + "\n" + std::to_string(size) + "\n";
}

}  // namespace

std::vector<std::uint8_t> Tree::serialize(const std::string& root) const {
  std::vector<std::uint8_t> stream;
  stream.reserve(stream_size(root));
  for (const auto& [path, bytes] : files_) {
    const std::string header = header_for(root, path, bytes.size());
    stream.insert(stream.end(), header.begin(), header.end());
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  return stream;
}

Digest Tree::stream_digest(const std::string& root) const {
  Hasher h;
  for (const auto& [path, bytes] : files_) {
    h.update(header_for(root, path, bytes.size()));
    h.update(bytes);
  }
  return h.finish();
}

std::uint64_t Tree::stream_size(const std::string& root) const {
  std::uint64_t size = 0;
  for (const auto& [path, bytes] : files_) {
    size += header_for(root, path, bytes.size()).size() + bytes.size();
  }
  return size;
}

std::string generator_selfcheck(std::uint64_t seed) {
  const auto two_versions = [](std::uint64_t s) {
    Tree tree(s, 1 << 20);
    const Digest v1 = tree.stream_digest("t");
    tree.evolve(0.05, 2);
    const Digest v2 = tree.stream_digest("t");
    tree.roll(0.1);
    std::vector<std::uint8_t> single(256 << 10);
    Rng rng(s ^ 0x5eed);
    rng.fill(single.data(), single.size());
    edit_buffer(rng, single, 0.2);
    const Digest edited = digest_of(single);
    roll_buffer(rng, single, 0.2);
    return std::vector<Digest>{v1, v2, tree.stream_digest("t"), edited,
                               digest_of(single)};
  };
  const auto first = two_versions(seed);
  if (first != two_versions(seed)) {
    return "the same seed gave two different trees";
  }
  const auto other = two_versions(seed + 1);
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i] == other[i]) return "seeds differing by one gave equal data";
  }
  if (first[0] == first[1] || first[1] == first[2] || first[3] == first[4]) {
    return "a new version left the data unchanged";
  }
  Tree tree(seed, 1 << 20);
  const auto stream = tree.serialize("t");
  if (!(digest_of(stream) == tree.stream_digest("t")) ||
      stream.size() != tree.stream_size("t")) {
    return "serialize() and stream_digest() disagree";
  }
  return {};
}

}  // namespace perfbench

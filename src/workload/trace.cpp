#include "workload/trace.h"

#include <cstring>
#include <iterator>
#include <sstream>
#include <string>

#include "common/byte_io.h"

namespace hds {

namespace {
constexpr char kBinaryMagic[4] = {'H', 'D', 'S', 'T'};
}  // namespace

void write_trace_text(std::ostream& out,
                      const std::vector<VersionStream>& versions) {
  for (std::size_t v = 0; v < versions.size(); ++v) {
    out << "V " << (v + 1) << ' ' << versions[v].chunks.size() << '\n';
    for (const auto& c : versions[v].chunks) {
      out << c.fp.hex() << ' ' << c.size << ' ' << c.content_seed << '\n';
    }
  }
}

bool read_trace_text(std::istream& in, std::vector<VersionStream>& out) {
  std::string line;
  VersionStream* current = nullptr;
  std::size_t expected = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == 'V') {
      if (current != nullptr && current->chunks.size() != expected) {
        return false;
      }
      std::istringstream header(line.substr(1));
      std::size_t version = 0;
      if (!(header >> version >> expected)) return false;
      if (version != out.size() + 1) return false;  // must be sequential
      out.emplace_back();
      current = &out.back();
      current->chunks.reserve(expected);
      continue;
    }
    if (current == nullptr) return false;
    std::istringstream fields(line);
    std::string hex;
    ChunkRecord rec;
    if (!(fields >> hex >> rec.size >> rec.content_seed)) return false;
    if (!Fingerprint::from_hex(hex, rec.fp)) return false;
    current->chunks.push_back(std::move(rec));
  }
  return current == nullptr || current->chunks.size() == expected;
}

void write_trace_binary(std::ostream& out,
                        const std::vector<VersionStream>& versions) {
  // The seal covers everything after the magic.
  ByteWriter body;
  body.u32(static_cast<std::uint32_t>(versions.size()));
  for (const auto& vs : versions) {
    body.u32(static_cast<std::uint32_t>(vs.chunks.size()));
    for (const auto& c : vs.chunks) {
      body.raw(c.fp.bytes);
      body.u32(c.size);
      body.u64(c.content_seed);
    }
  }
  body.seal();
  out.write(kBinaryMagic, 4);
  out.write(reinterpret_cast<const char*>(body.bytes().data()),
            static_cast<std::streamsize>(body.bytes().size()));
}

bool read_trace_binary(std::istream& in, std::vector<VersionStream>& out) {
  char magic[4];
  if (!in.read(magic, 4) || std::memcmp(magic, kBinaryMagic, 4) != 0) {
    return false;
  }
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  const auto body = unseal(bytes);
  if (!body) return false;

  ByteReader reader(*body);
  std::uint32_t version_count = 0;
  if (!reader.u32(version_count)) return false;
  for (std::uint32_t v = 0; v < version_count; ++v) {
    std::uint32_t chunk_count = 0;
    if (!reader.u32(chunk_count)) return false;
    VersionStream vs;
    vs.chunks.reserve(chunk_count);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
      ChunkRecord rec;
      if (!reader.raw(rec.fp.bytes) || !reader.u32(rec.size) ||
          !reader.u64(rec.content_seed)) {
        return false;
      }
      vs.chunks.push_back(std::move(rec));
    }
    out.push_back(std::move(vs));
  }
  return true;
}

}  // namespace hds

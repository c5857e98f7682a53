// Fingerprint-trace I/O: persist and replay backup streams as metadata.
//
// Real dedup research runs on hash traces (the fslhomes/macos datasets of
// Table 1 are exactly that: FSL snapshot traces of per-chunk fingerprints
// and sizes, no content). This module defines a trace format so workloads
// can be captured once and replayed across systems, or real-world traces
// converted into it:
//
//   text form (one backup version per stanza):
//     V <version-number> <chunk-count>
//     <40-hex-fingerprint> <size> <content-seed>
//     ...
//
//   binary form: "HDST" magic, u32 version count, then per version a u32
//   chunk count and packed 32-byte records (20B fp, 4B size, 8B seed),
//   then the seal (common/byte_io.h) over everything after the magic.
//
// Chunk contents regenerate from the seed (common/chunk.h), so a trace is
// enough to drive byte-exact restores.
#pragma once

#include <istream>
#include <ostream>
#include <vector>

#include "common/chunk.h"

namespace hds {

// --- Text format ---
void write_trace_text(std::ostream& out,
                      const std::vector<VersionStream>& versions);
// Returns false on malformed input; `out` is left with the versions parsed
// so far.
bool read_trace_text(std::istream& in, std::vector<VersionStream>& out);

// --- Binary format ---
void write_trace_binary(std::ostream& out,
                        const std::vector<VersionStream>& versions);
bool read_trace_binary(std::istream& in, std::vector<VersionStream>& out);

}  // namespace hds

// Tests for the Container: add/read/remove semantics, the hole model
// (removed space is unusable until compaction — paper Figure 6),
// utilization accounting, and serialization with corruption detection.
#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "storage/container.h"

namespace hds {
namespace {

std::vector<std::uint8_t> bytes_of(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  Xoshiro256ss rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

// Recomputes a format-3 image's trailing whole-file CRC, so that only the
// check under test can notice a flipped byte.
void repair_file_crc(std::vector<std::uint8_t>& blob) {
  const std::uint32_t crc = crc32(blob.data(), blob.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    blob[blob.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

TEST(Container, AddAndReadBack) {
  Container c(1, 64 * 1024);
  const auto data = bytes_of(1, 4096);
  const auto fp = Fingerprint::from_seed(1);
  ASSERT_TRUE(c.add(fp, data));
  const auto read = c.read(fp);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(std::equal(read->begin(), read->end(), data.begin()));
  EXPECT_EQ(c.chunk_count(), 1u);
  EXPECT_EQ(c.used_bytes(), 4096u);
}

TEST(Container, RejectsDuplicateFingerprint) {
  Container c(1, 64 * 1024);
  const auto data = bytes_of(2, 100);
  const auto fp = Fingerprint::from_seed(2);
  ASSERT_TRUE(c.add(fp, data));
  EXPECT_FALSE(c.add(fp, data));
  EXPECT_EQ(c.chunk_count(), 1u);
}

TEST(Container, RejectsWhenFull) {
  Container c(1, 1024);
  ASSERT_TRUE(c.add(Fingerprint::from_seed(3), bytes_of(3, 1000)));
  EXPECT_FALSE(c.fits(100));
  EXPECT_FALSE(c.add(Fingerprint::from_seed(4), bytes_of(4, 100)));
}

TEST(Container, ReadMissingReturnsNullopt) {
  Container c;
  EXPECT_FALSE(c.read(Fingerprint::from_seed(5)).has_value());
  EXPECT_FALSE(c.find(Fingerprint::from_seed(5)).has_value());
}

TEST(Container, RemoveLeavesHole) {
  // Paper Figure 6: freed space is not reusable until compaction.
  Container c(1, 8192);
  ASSERT_TRUE(c.add(Fingerprint::from_seed(6), bytes_of(6, 4000)));
  ASSERT_TRUE(c.add(Fingerprint::from_seed(7), bytes_of(7, 4000)));
  ASSERT_TRUE(c.remove(Fingerprint::from_seed(6)));

  EXPECT_EQ(c.used_bytes(), 4000u);
  EXPECT_EQ(c.data_size(), 8000u);  // the hole persists
  EXPECT_FALSE(c.fits(3000));       // tail space is what counts
  EXPECT_FALSE(c.remove(Fingerprint::from_seed(6)));  // already gone
}

TEST(Container, CompactReclaimsHoles) {
  Container c(1, 8192);
  const auto keep = bytes_of(8, 3000);
  ASSERT_TRUE(c.add(Fingerprint::from_seed(9), bytes_of(9, 4000)));
  ASSERT_TRUE(c.add(Fingerprint::from_seed(8), keep));
  ASSERT_TRUE(c.remove(Fingerprint::from_seed(9)));

  c.compact();
  EXPECT_EQ(c.data_size(), 3000u);
  EXPECT_TRUE(c.fits(5000));
  const auto read = c.read(Fingerprint::from_seed(8));
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(std::equal(read->begin(), read->end(), keep.begin()));
}

TEST(Container, UtilizationTracksLiveBytes) {
  Container c(1, 10000);
  ASSERT_TRUE(c.add(Fingerprint::from_seed(10), bytes_of(10, 2500)));
  EXPECT_DOUBLE_EQ(c.utilization(), 0.25);
  ASSERT_TRUE(c.add(Fingerprint::from_seed(11), bytes_of(11, 2500)));
  EXPECT_DOUBLE_EQ(c.utilization(), 0.5);
  c.remove(Fingerprint::from_seed(10));
  EXPECT_DOUBLE_EQ(c.utilization(), 0.25);
}

TEST(Container, MetaModeAccountsWithoutPayload) {
  Container c(1, 8192);
  ASSERT_TRUE(c.add_meta(Fingerprint::from_seed(12), 3000));
  EXPECT_EQ(c.used_bytes(), 3000u);
  const auto read = c.read(Fingerprint::from_seed(12));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->size(), 3000u);  // zero-filled placeholder
  EXPECT_FALSE(c.add_meta(Fingerprint::from_seed(12), 10));
}

TEST(Container, SerializeRoundTrip) {
  Container c(42, 64 * 1024);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        c.add(Fingerprint::from_seed(i), bytes_of(i, 1000 + i * 37)));
  }
  c.remove(Fingerprint::from_seed(3));

  const auto blob = c.serialize();
  const auto back = Container::deserialize(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id(), 42);
  EXPECT_EQ(back->chunk_count(), 9u);
  EXPECT_EQ(back->used_bytes(), c.used_bytes());
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (i == 3) {
      EXPECT_FALSE(back->read(Fingerprint::from_seed(i)).has_value());
      continue;
    }
    const auto read = back->read(Fingerprint::from_seed(i));
    ASSERT_TRUE(read.has_value());
    const auto expect = bytes_of(i, 1000 + i * 37);
    EXPECT_TRUE(std::equal(read->begin(), read->end(), expect.begin()));
  }
}

TEST(Container, DeserializeDetectsCorruption) {
  Container c(1, 8192);
  ASSERT_TRUE(c.add(Fingerprint::from_seed(13), bytes_of(13, 500)));
  auto blob = c.serialize();

  auto corrupted = blob;
  corrupted[corrupted.size() / 2] ^= 0x01;
  EXPECT_FALSE(Container::deserialize(corrupted).has_value());

  auto truncated = blob;
  truncated.pop_back();
  EXPECT_FALSE(Container::deserialize(truncated).has_value());

  EXPECT_FALSE(Container::deserialize({}).has_value());
  EXPECT_TRUE(Container::deserialize(blob).has_value());
}

TEST(Container, MetaModeEnforcesCapacity) {
  // Regression: virtual (metadata-only) payloads must count against the
  // container capacity exactly like real bytes.
  Container c(1, 64 * 1024);
  std::size_t added = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    added += c.add_meta(Fingerprint::from_seed(i), 4096);
  }
  EXPECT_EQ(added, 16u);  // 64 KiB / 4 KiB
  EXPECT_LE(c.data_size(), 64u * 1024u);
  EXPECT_FALSE(c.fits(4096));
}

TEST(Container, MixedRealAndMetaChunksShareCapacity) {
  Container c(1, 16 * 1024);
  ASSERT_TRUE(c.add(Fingerprint::from_seed(1), bytes_of(1, 8 * 1024)));
  ASSERT_TRUE(c.add_meta(Fingerprint::from_seed(2), 4 * 1024));
  EXPECT_FALSE(c.fits(8 * 1024));
  ASSERT_TRUE(c.add_meta(Fingerprint::from_seed(3), 4 * 1024));
  EXPECT_FALSE(c.add_meta(Fingerprint::from_seed(4), 1));
  EXPECT_EQ(c.used_bytes(), 16u * 1024u);
}

TEST(Container, MetaSerializeRoundTrip) {
  Container c(9, 64 * 1024);
  ASSERT_TRUE(c.add_meta(Fingerprint::from_seed(1), 3000));
  ASSERT_TRUE(c.add(Fingerprint::from_seed(2), bytes_of(2, 500)));
  const auto back = Container::deserialize(c.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->used_bytes(), c.used_bytes());
  EXPECT_EQ(back->data_size(), c.data_size());
  const auto meta_read = back->read(Fingerprint::from_seed(1));
  ASSERT_TRUE(meta_read.has_value());
  EXPECT_EQ(meta_read->size(), 3000u);
}

TEST(Container, SerializeEmptyContainer) {
  Container c(7, 4096);
  const auto back = Container::deserialize(c.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id(), 7);
  EXPECT_EQ(back->chunk_count(), 0u);
}

TEST(Container, Format3HeaderAndFooterParse) {
  Container c(42, 64 * 1024);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(c.add(Fingerprint::from_seed(i), bytes_of(i, 700 + i * 13)));
  }
  ASSERT_TRUE(c.add_meta(Fingerprint::from_seed(99), 1234));
  const auto blob = c.serialize();

  const auto header = std::span(blob).first(Container::kHeaderSize);
  const auto info = Container::parse_header(header);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->footer_indexed);
  EXPECT_EQ(info->id, 42);
  EXPECT_EQ(info->count, 7u);
  // Header data size counts materialized bytes only; the virtual chunk's
  // 1234 bytes live in the entry table, not the data region.
  EXPECT_EQ(info->data_size, c.data_size() - 1234);
  EXPECT_EQ(info->expected_file_size(), blob.size());

  const auto footer = std::span(blob).subspan(
      static_cast<std::size_t>(info->footer_offset()),
      static_cast<std::size_t>(info->footer_size()));
  const auto entries = Container::parse_footer(header, footer);
  ASSERT_TRUE(entries.has_value());
  EXPECT_EQ(entries->size(), 7u);
  for (const auto& [fp, entry] : *entries) {
    const auto expect = c.find(fp);
    ASSERT_TRUE(expect.has_value());
    EXPECT_EQ(entry.offset, expect->offset);
    EXPECT_EQ(entry.size, expect->size);
    EXPECT_EQ(entry.crc, expect->crc);
  }
}

TEST(Container, FooterCrcCoversHeaderAndTable) {
  Container c(5, 8192);
  ASSERT_TRUE(c.add(Fingerprint::from_seed(1), bytes_of(1, 600)));
  const auto blob = c.serialize();
  const auto info = *Container::parse_header(std::span(blob).first(20));
  const auto footer_at = static_cast<std::size_t>(info.footer_offset());
  const auto footer_len = static_cast<std::size_t>(info.footer_size());

  // Flip a header byte (capacity field): the footer CRC must catch it even
  // though the table bytes are intact.
  auto bad_header = blob;
  bad_header[6] ^= 0x01;
  EXPECT_FALSE(Container::parse_footer(
                   std::span(bad_header).first(20),
                   std::span(bad_header).subspan(footer_at, footer_len))
                   .has_value());

  // Flip a table byte: same detection.
  auto bad_table = blob;
  bad_table[footer_at + footer_len / 2] ^= 0x01;
  EXPECT_FALSE(Container::parse_footer(
                   std::span(bad_table).first(20),
                   std::span(bad_table).subspan(footer_at, footer_len))
                   .has_value());

  EXPECT_TRUE(Container::parse_footer(
                  std::span(blob).first(20),
                  std::span(blob).subspan(footer_at, footer_len))
                  .has_value());
}

TEST(Container, LegacyFormat2StillDeserializes) {
  Container c(11, 64 * 1024);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.add(Fingerprint::from_seed(i), bytes_of(i, 900 + i * 7)));
  }
  ASSERT_TRUE(c.add_meta(Fingerprint::from_seed(50), 2000));
  const auto legacy = c.serialize_legacy();

  const auto info = Container::parse_header(std::span(legacy).first(20));
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->footer_indexed);

  const auto back = Container::deserialize(legacy);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id(), 11);
  EXPECT_EQ(back->chunk_count(), 6u);
  EXPECT_EQ(back->data_size(), c.data_size());
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto read = back->read(Fingerprint::from_seed(i));
    ASSERT_TRUE(read.has_value());
    const auto expect = bytes_of(i, 900 + i * 7);
    EXPECT_TRUE(std::equal(read->begin(), read->end(), expect.begin()));
  }
  EXPECT_EQ(back->read(Fingerprint::from_seed(50))->size(), 2000u);
}

TEST(Container, LoadChecksEveryLivePayloadOnce) {
  Container c(7, 64 * 1024);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(c.add(Fingerprint::from_seed(i), bytes_of(i, 1000)));
  }
  ASSERT_TRUE(c.remove(Fingerprint::from_seed(1)));  // hole at [1000, 2000)
  const auto blob = c.serialize();
  constexpr std::size_t kData = Container::kHeaderSize;

  // A flipped live payload byte under a repaired file CRC: the load rejects
  // the container and counts the mismatch. fsck's whole-file check accepts
  // the image and leaves the damage to corrupt_chunks().
  auto bad_payload = blob;
  bad_payload[kData + 2000 + 10] ^= 0x01;  // chunk 2
  repair_file_crc(bad_payload);
  const std::uint64_t before = chunk_crc_failures();
  EXPECT_FALSE(Container::deserialize(bad_payload).has_value());
  EXPECT_EQ(chunk_crc_failures(), before + 1);
  const auto whole =
      Container::deserialize(bad_payload, Container::LoadCheck::kWholeFile);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->corrupt_chunks(),
            std::vector<Fingerprint>{Fingerprint::from_seed(2)});

  // Bytes that no live chunk covers (the hole, the file CRC itself) are
  // never served, so the load does not check them; the whole-file check
  // does.
  auto bad_hole = blob;
  bad_hole[kData + 1500] ^= 0x01;
  auto bad_trailer = blob;
  bad_trailer.back() ^= 0x01;
  for (const auto* image : {&bad_hole, &bad_trailer}) {
    EXPECT_TRUE(Container::deserialize(*image).has_value());
    EXPECT_FALSE(
        Container::deserialize(*image, Container::LoadCheck::kWholeFile)
            .has_value());
  }
  EXPECT_EQ(chunk_crc_failures(), before + 1);
}

}  // namespace
}  // namespace hds

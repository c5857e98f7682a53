// Tests for ContainerStore backends: I/O accounting, ID reservation, erase
// semantics, and the file backend's on-disk round trip.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "storage/container_store.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

Container make_container(std::uint64_t seed, std::size_t chunks = 4) {
  Container c(0, 64 * 1024);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::vector<std::uint8_t> data(512 + rng.next_below(1024));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    c.add(Fingerprint::from_seed(seed * 100 + i), data);
  }
  return c;
}

template <typename T>
std::unique_ptr<ContainerStore> make_store();

template <>
std::unique_ptr<ContainerStore> make_store<MemoryContainerStore>() {
  return std::make_unique<MemoryContainerStore>();
}

template <>
std::unique_ptr<ContainerStore> make_store<FileContainerStore>() {
  // The pid keeps concurrent ctest workers (each a fresh process whose
  // counter restarts at 0) out of each other's directories.
  static int counter = 0;
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("hds_store_test_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return std::make_unique<FileContainerStore>(dir);
}

template <typename T>
class ContainerStoreTest : public ::testing::Test {
 protected:
  std::unique_ptr<ContainerStore> store_ = make_store<T>();
};

using Backends = ::testing::Types<MemoryContainerStore, FileContainerStore>;
TYPED_TEST_SUITE(ContainerStoreTest, Backends);

TYPED_TEST(ContainerStoreTest, WriteAssignsSequentialPositiveIds) {
  const auto a = this->store_->write(make_container(1));
  const auto b = this->store_->write(make_container(2));
  EXPECT_GT(a, 0);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(this->store_->container_count(), 2u);
}

TYPED_TEST(ContainerStoreTest, ReadBackMatchesWritten) {
  const auto original = make_container(3);
  const auto fp = Fingerprint::from_seed(300);
  const auto expected = *original.read(fp);
  std::vector<std::uint8_t> expect_copy(expected.begin(), expected.end());

  const auto id = this->store_->write(make_container(3));
  const auto back = this->store_->read(id);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->id(), id);
  const auto read = back->read(fp);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(std::equal(read->begin(), read->end(), expect_copy.begin()));
}

TYPED_TEST(ContainerStoreTest, ReadsAndWritesAreCounted) {
  const auto id = this->store_->write(make_container(4));
  EXPECT_EQ(this->store_->stats().container_writes, 1u);
  EXPECT_EQ(this->store_->stats().container_reads, 0u);
  (void)this->store_->read(id);
  (void)this->store_->read(id);
  EXPECT_EQ(this->store_->stats().container_reads, 2u);
  EXPECT_GT(this->store_->stats().bytes_written, 0u);
  EXPECT_GT(this->store_->stats().bytes_read, 0u);
}

TYPED_TEST(ContainerStoreTest, MissingReadReturnsNullAndIsNotCounted) {
  EXPECT_EQ(this->store_->read(999), nullptr);
  EXPECT_EQ(this->store_->stats().container_reads, 0u);
}

TYPED_TEST(ContainerStoreTest, EraseRemovesContainer) {
  const auto id = this->store_->write(make_container(5));
  EXPECT_TRUE(this->store_->erase(id));
  EXPECT_EQ(this->store_->read(id), nullptr);
  EXPECT_FALSE(this->store_->erase(id));
  EXPECT_EQ(this->store_->container_count(), 0u);
}

TYPED_TEST(ContainerStoreTest, ReserveThenPut) {
  const auto id = this->store_->reserve_id();
  auto c = make_container(6);
  c.set_id(id);
  this->store_->put(std::move(c));
  // The next write must not reuse the reserved ID.
  const auto next = this->store_->write(make_container(7));
  EXPECT_GT(next, id);
  EXPECT_NE(this->store_->read(id), nullptr);
}

TYPED_TEST(ContainerStoreTest, IdsListsAllLiveContainers) {
  const auto a = this->store_->write(make_container(8));
  const auto b = this->store_->write(make_container(9));
  this->store_->erase(a);
  const auto ids = this->store_->ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], b);
}

TYPED_TEST(ContainerStoreTest, ResetStatsClearsCounters) {
  const auto id = this->store_->write(make_container(10));
  (void)this->store_->read(id);
  this->store_->reset_stats();
  EXPECT_EQ(this->store_->stats().container_reads, 0u);
  EXPECT_EQ(this->store_->stats().container_writes, 0u);
}

TEST(MemoryContainerStore, PhysicalBytesEqualLogicalBytes) {
  MemoryContainerStore store;
  const auto id = store.write(make_container(13));
  (void)store.read(id);
  (void)store.read(id);
  EXPECT_GT(store.stats().bytes_read, 0u);
  EXPECT_EQ(store.stats().bytes_read_physical.load(),
            store.stats().bytes_read.load());
}

namespace {
std::filesystem::path fresh_dir(const char* name) {
  const auto dir = hds::testutil::unique_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}
}  // namespace

// A full default-capacity (4 MiB) container is read from the device once
// and then served from the block cache: the budget holds whole containers.
TEST(FileContainerStore, FullDefaultContainerIsServedFromTheBlockCache) {
  FileContainerStore store(fresh_dir("hds_store_fullcache"));
  Container full;
  ASSERT_EQ(full.capacity(), kDefaultContainerSize);
  std::vector<std::uint8_t> data(4096);
  Xoshiro256ss rng(20);
  for (std::uint64_t i = 0; full.fits(data.size()); ++i) {
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(full.add(Fingerprint::from_seed(2000 + i), data));
  }
  const auto logical = full.data_size();
  const auto id = store.write(std::move(full));

  ASSERT_NE(store.read(id), nullptr);
  const auto after_first = store.stats().bytes_read_physical.load();
  // A miss moves the whole file: header, table and CRCs on top of the data.
  EXPECT_GT(after_first, logical);

  const auto again = store.read(id);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->data_size(), logical);
  EXPECT_EQ(store.io_stats().block_cache_hits, 1u);
  EXPECT_EQ(store.stats().bytes_read_physical, after_first);
  EXPECT_EQ(store.stats().bytes_read, 2 * logical);
}

TEST(FileContainerStore, BlockCacheHitCostsNoPhysicalBytes) {
  FileContainerStore store(fresh_dir("hds_store_cachehit"));
  const auto id = store.write(make_container(16, 8));

  ASSERT_NE(store.read(id), nullptr);
  const auto after_first = store.stats().bytes_read_physical.load();
  EXPECT_GT(after_first, 0u);

  ASSERT_NE(store.read(id), nullptr);
  // Second read is served from the block cache: still a counted container
  // read at full logical size, but zero new device bytes.
  EXPECT_EQ(store.stats().container_reads, 2u);
  EXPECT_EQ(store.stats().bytes_read_physical, after_first);
  EXPECT_EQ(store.io_stats().block_cache_hits, 1u);
}

TEST(FileContainerStore, WriteInvalidatesCachesBeforeNextRead) {
  FileContainerStore store(fresh_dir("hds_store_inval"));
  auto first = make_container(17, 4);
  const auto id = store.write(std::move(first));
  ASSERT_NE(store.read(id), nullptr);  // populates the block cache

  // Rewrite the container under the same ID with different content.
  auto second = make_container(18, 4);
  second.set_id(id);
  store.put(std::move(second));

  const auto back = store.read(id);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->read(Fingerprint::from_seed(1800)).has_value());
  EXPECT_FALSE(back->read(Fingerprint::from_seed(1700)).has_value());
}

TEST(FileContainerStore, LegacyFormat2FileReadsViaSlurp) {
  const auto dir = fresh_dir("hds_store_legacy");
  std::filesystem::create_directories(dir);
  Container legacy(3, 64 * 1024);
  Xoshiro256ss rng(19);
  std::vector<std::uint8_t> data(2048);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(legacy.add(Fingerprint::from_seed(1900), data));
  {
    const auto blob = legacy.serialize_legacy();
    std::ofstream out(dir / "container_3.hdsc", std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  FileContainerStore store(dir, /*index_existing=*/true);
  const auto got = store.read(store.ids().at(0));
  ASSERT_NE(got, nullptr);
  const auto read = got->read(Fingerprint::from_seed(1900));
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(std::equal(read->begin(), read->end(), data.begin()));
}

TEST(FileContainerStore, PersistsSerializedFormOnDisk) {
  const auto dir =
      hds::testutil::unique_path("hds_store_disk_check");
  std::filesystem::remove_all(dir);
  FileContainerStore store(dir);
  const auto id = store.write(make_container(11));
  // Exactly one container file, parseable by Container::deserialize.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_GT(entry.file_size(), 0u);
  }
  EXPECT_EQ(files, 1u);
  EXPECT_NE(store.read(id), nullptr);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hds

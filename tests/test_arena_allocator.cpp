// Tests for graph/arena_allocator.hpp: the size gate, alignment, growth of
// an arena-backed vector across the gate, and release of large blocks.
#include "graph/arena_allocator.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <vector>

namespace churnet {
namespace {

constexpr std::uintptr_t kTwoMiB = std::uintptr_t{2} << 20;

/// Whether every page of [block, block + bytes) is mapped: mincore fails
/// with ENOMEM on a range that holds an unmapped page.
bool range_mapped(const void* block, std::size_t bytes) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto start = reinterpret_cast<std::uintptr_t>(block) & ~(page - 1);
  const std::size_t length =
      reinterpret_cast<std::uintptr_t>(block) + bytes - start;
  std::vector<unsigned char> residency((length + page - 1) / page);
  errno = 0;
  const int rc = mincore(reinterpret_cast<void*>(start), length,
                         residency.data());
  return rc == 0 || errno != ENOMEM;
}

TEST(ArenaAllocator, GateIsTheBlockSizeInBytes) {
  EXPECT_FALSE(ArenaAllocator<std::uint64_t>::large_block(
      kHugeArenaBytes / sizeof(std::uint64_t) - 1));
  EXPECT_TRUE(ArenaAllocator<std::uint64_t>::large_block(
      kHugeArenaBytes / sizeof(std::uint64_t)));
  EXPECT_FALSE(ArenaAllocator<char>::large_block(kHugeArenaBytes - 1));
  EXPECT_TRUE(ArenaAllocator<char>::large_block(kHugeArenaBytes));
}

TEST(ArenaAllocator, SmallBlocksAreOrdinaryAndLargeBlocksHugePageAligned) {
  ArenaAllocator<std::uint64_t> alloc;
  const std::uint64_t maps_before = arena_mapping_count();
  std::uint64_t* small = alloc.allocate(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small) % alignof(std::uint64_t),
            0u);
  EXPECT_EQ(arena_mapping_count(), maps_before);
  alloc.deallocate(small, 1000);

  // An odd size, so the mapping is rounded up to whole huge pages.
  const std::size_t count = kHugeArenaBytes / sizeof(std::uint64_t) + 12345;
  std::uint64_t* large = alloc.allocate(count);
  ASSERT_NE(large, nullptr);
  if (kArenaMapsLargeBlocks) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(large) % kTwoMiB, 0u);
    EXPECT_EQ(arena_mapping_count(), maps_before + 1);
  } else {
    EXPECT_EQ(arena_mapping_count(), maps_before);
  }
  // Every byte is usable (writes fault pages in; THP or not).
  for (std::size_t i = 0; i < count; ++i) large[i] = i * 3;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < count; i += 4096) sum += large[i] - i * 3;
  EXPECT_EQ(sum, 0u);
  EXPECT_EQ(large[count - 1], (count - 1) * 3);
  alloc.deallocate(large, count);
  if (kArenaMapsLargeBlocks) {
    EXPECT_FALSE(range_mapped(large, count * sizeof(std::uint64_t)));
  }
}

TEST(ArenaAllocator, VectorGrowsAcrossTheGateKeepingItsContents) {
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> values;
  const std::uint64_t maps_before = arena_mapping_count();
  const std::size_t target = 3 * kHugeArenaBytes / sizeof(std::uint32_t);
  for (std::uint32_t i = 0; i < target; ++i) values.push_back(i ^ 0x5a5a5a5a);
  ASSERT_EQ(values.size(), target);
  for (std::uint32_t i = 0; i < target; ++i) {
    ASSERT_EQ(values[i], i ^ 0x5a5a5a5a) << "at " << i;
  }
  EXPECT_TRUE(ArenaAllocator<std::uint32_t>::large_block(values.capacity()));
  if (kArenaMapsLargeBlocks) {
    // Doubling past 4 MiB maps 4 MiB, then 8 MiB, then 16 MiB blocks.
    EXPECT_GE(arena_mapping_count(), maps_before + 2);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(values.data()) % kTwoMiB, 0u);
  }

  // Copies and moves between arena vectors keep working across the gate.
  const auto copy = values;
  EXPECT_EQ(copy, values);
  auto moved = std::move(values);
  EXPECT_EQ(moved, copy);
  moved.clear();
  moved.shrink_to_fit();
  EXPECT_EQ(moved.capacity(), 0u);
}

}  // namespace
}  // namespace churnet

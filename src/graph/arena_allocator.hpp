// Allocator for DynamicGraph's large arenas (DESIGN.md decision 11).
//
// At n = 10^6 every birth and death touches a handful of random slot
// records and pool entries, so the churn loop is bound by TLB misses: with
// 4 KiB pages a random access into a 100 MB arena almost always misses the
// TLB as well as the cache. A block of kHugeArenaBytes or more therefore
// gets its own 2 MiB-aligned anonymous mapping, advised MADV_HUGEPAGE, and
// is unmapped on free; smaller blocks go to std::allocator. The program only
// advises its own mappings: where transparent huge pages are disabled the
// advice is ignored and the block is ordinary, correct, aligned memory.
//
// Builds with AddressSanitizer (CHURNET_SANITIZE) send every block to
// std::allocator, so ASan still sees each arena's bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace churnet {

/// The one size gate: blocks this large get a huge-page mapping, and a
/// DynamicGraph whose in-pool arena is this large stages its prefetch
/// hints (below it the graph is cache-resident and the extra passes cost
/// more than they hide).
inline constexpr std::size_t kHugeArenaBytes = std::size_t{4} << 20;

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kArenaMapsLargeBlocks = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kArenaMapsLargeBlocks = false;
#else
inline constexpr bool kArenaMapsLargeBlocks = true;
#endif
#else
inline constexpr bool kArenaMapsLargeBlocks = true;
#endif

/// Huge-page mappings made by every ArenaAllocator in the process so far
/// (the allocation tests add it to their operator-new count, so a
/// steady-state mapping cannot escape the zero-allocation contract).
std::uint64_t arena_mapping_count();

namespace detail {
/// A 2 MiB-aligned private anonymous mapping of at least `bytes`, advised
/// MADV_HUGEPAGE; throws std::bad_alloc when the kernel refuses.
void* map_huge_arena(std::size_t bytes);
/// Releases a block map_huge_arena returned for the same `bytes`.
void unmap_huge_arena(void* block, std::size_t bytes) noexcept;
}  // namespace detail

/// Stateless allocator: every instance can free every other's blocks. The
/// route is a pure function of the element count, so deallocate (which
/// receives the allocate count) always takes the route allocate took.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  /// Whether a block of `count` elements reaches kHugeArenaBytes.
  static constexpr bool large_block(std::size_t count) {
    return count >= kHugeArenaBytes / sizeof(T);
  }

  T* allocate(std::size_t count) {
    if (kArenaMapsLargeBlocks && large_block(count)) {
      if (count > static_cast<std::size_t>(-1) / sizeof(T)) {
        throw std::bad_array_new_length();
      }
      return static_cast<T*>(detail::map_huge_arena(count * sizeof(T)));
    }
    return std::allocator<T>().allocate(count);
  }

  void deallocate(T* block, std::size_t count) noexcept {
    if (kArenaMapsLargeBlocks && large_block(count)) {
      detail::unmap_huge_arena(block, count * sizeof(T));
      return;
    }
    std::allocator<T>().deallocate(block, count);
  }

  template <typename U>
  friend bool operator==(const ArenaAllocator&, const ArenaAllocator<U>&) {
    return true;
  }
};

}  // namespace churnet

#include "graph/arena_allocator.hpp"

#include <sys/mman.h>

#include <atomic>

namespace churnet {
namespace {

constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;

std::atomic<std::uint64_t> g_mappings{0};

std::size_t round_to_huge_page(std::size_t bytes) {
  return (bytes + kHugePage - 1) & ~(kHugePage - 1);
}

}  // namespace

std::uint64_t arena_mapping_count() {
  return g_mappings.load(std::memory_order_relaxed);
}

namespace detail {

void* map_huge_arena(std::size_t bytes) {
  // Over-map by one huge page, then trim the unaligned head and the tail:
  // mmap only promises 4 KiB alignment, and a huge page needs its 2 MiB
  // frame to lie wholly inside the mapping.
  const std::size_t length = round_to_huge_page(bytes);
  if (length < bytes || length + kHugePage < length) throw std::bad_alloc();
  void* raw = mmap(nullptr, length + kHugePage, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (start + kHugePage - 1) & ~(kHugePage - 1);
  const std::size_t head = aligned - start;
  if (head > 0) munmap(raw, head);
  munmap(reinterpret_cast<void*>(aligned + length), kHugePage - head);
  void* block = reinterpret_cast<void*>(aligned);
#if defined(MADV_HUGEPAGE)
  // Advice only: with THP off (or MADV_HUGEPAGE unsupported) it fails and
  // the block stays a correct mapping of ordinary pages.
  madvise(block, length, MADV_HUGEPAGE);
#endif
  g_mappings.fetch_add(1, std::memory_order_relaxed);
  return block;
}

void unmap_huge_arena(void* block, std::size_t bytes) noexcept {
  munmap(block, round_to_huge_page(bytes));
}

}  // namespace detail
}  // namespace churnet

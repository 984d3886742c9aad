// Degree-bucket index over a DynamicGraph's slots: the structure behind
// DynamicGraph::extreme_degree, which the maxdeg/mindeg adversaries query
// once per adversarial death.
//
// One word-packed bucket per total degree holds the slots currently at
// that degree (Bitset64, one bit per slot), plus a summary bitset with one
// bit per bucket word that is set iff the word is nonzero. The owner moves
// a slot between adjacent buckets on every edge set/clear, so an update is
// a handful of word operations. A query walks a lazily maintained max/min
// hint to the extreme nonempty bucket and returns its lowest set bit — the
// smallest slot, which is exactly the tie-break of a slot-ascending scan
// with strict improvement. Finding that bit scans the summary, one word
// per 4096 slots, so a pick is O(slots/4096) instead of the scan's O(slots)
// degree evaluations.
//
// Hints: max_hint_ >= the true maximum and min_hint_ <= the true minimum
// while any slot is indexed. Updates only ever widen them (an increment
// raises max_hint_, a decrement or insert lowers min_hint_); queries
// narrow them back past empty buckets. A walk never passes more buckets
// than the updates since the last query widened the hint by, and a churn
// loop widens it by a few buckets per death (a newborn enters at degree 0
// and is wired straight away).
//
// Bucket bitsets grow on demand to the current slot capacity when a slot
// first lands in them, so degrees that never occur cost no memory; slot
// capacity grows geometrically. A warmed churn loop therefore performs no
// heap allocation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/assertx.hpp"
#include "common/bitset64.hpp"

namespace churnet {

class DegreeIndex {
 public:
  /// degree_of() for a slot that is not indexed (dead or never used).
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Whether the index is live (start() called, drop() not since).
  bool built() const { return built_; }

  /// Starts an empty, live index sized for slots [0, slot_bound); the
  /// owner then insert()s every alive slot.
  void start(std::uint32_t slot_bound);

  /// Discards the index and its memory; built() becomes false.
  void drop();

  /// Indexes `slot` at `degree`; the slot must not be indexed.
  void insert(std::uint32_t slot, std::uint32_t degree) {
    if (slot >= degree_.size()) grow_slots(slot);
    if (degree >= buckets_.size()) grow_buckets(degree);
    CHURNET_ASSERT(degree_[slot] == kAbsent);
    degree_[slot] = degree;
    add(slot, degree);
    max_hint_ = live_ == 0 ? degree : std::max(max_hint_, degree);
    min_hint_ = live_ == 0 ? degree : std::min(min_hint_, degree);
    ++live_;
  }

  /// Removes an indexed slot.
  void erase(std::uint32_t slot) {
    const std::uint32_t degree = degree_[slot];
    CHURNET_ASSERT(degree != kAbsent);
    take(slot, degree);
    degree_[slot] = kAbsent;
    --live_;
  }

  /// An indexed slot gained one edge.
  void increment(std::uint32_t slot) {
    const std::uint32_t degree = degree_[slot];
    CHURNET_ASSERT(degree != kAbsent);
    if (degree + 1 >= buckets_.size()) grow_buckets(degree + 1);
    take(slot, degree);
    add(slot, degree + 1);
    degree_[slot] = degree + 1;
    max_hint_ = std::max(max_hint_, degree + 1);
  }

  /// An indexed slot lost one edge.
  void decrement(std::uint32_t slot) {
    const std::uint32_t degree = degree_[slot];
    CHURNET_ASSERT(degree != kAbsent && degree > 0);
    take(slot, degree);
    add(slot, degree - 1);
    degree_[slot] = degree - 1;
    min_hint_ = std::min(min_hint_, degree - 1);
  }

  /// Smallest indexed slot of maximum (`maximize`) or minimum degree.
  /// Requires at least one indexed slot; narrows the hint on the way.
  std::uint32_t extreme_slot(bool maximize);

  /// The indexed degree of `slot`, kAbsent when not indexed.
  std::uint32_t degree_of(std::uint32_t slot) const {
    return slot < degree_.size() ? degree_[slot] : kAbsent;
  }

  /// Internal invariants: every indexed slot sits in exactly its degree's
  /// bucket, counts and summaries match the bucket words, and the hints
  /// bracket the live degree range. O(buckets * slots).
  bool consistent() const;

 private:
  struct Bucket {
    Bitset64 members;  // bit s: slot s has this degree
    Bitset64 summary;  // bit w: members word w is nonzero
    std::uint32_t count = 0;
  };

  void add(std::uint32_t slot, std::uint32_t degree) {
    Bucket& bucket = buckets_[degree];
    if (slot >= bucket.members.size()) fit_bucket(bucket);
    bucket.members.set(slot);
    bucket.summary.set(slot / Bitset64::kWordBits);
    ++bucket.count;
  }

  void take(std::uint32_t slot, std::uint32_t degree) {
    Bucket& bucket = buckets_[degree];
    bucket.members.reset(slot);
    const std::uint32_t word = slot / Bitset64::kWordBits;
    if (bucket.members.words()[word] == 0) bucket.summary.reset(word);
    --bucket.count;
  }

  void grow_slots(std::uint32_t slot);      // cold: slot capacity
  void grow_buckets(std::uint32_t degree);  // cold: a new degree record
  void fit_bucket(Bucket& bucket) const;    // cold: bucket to capacity

  std::vector<Bucket> buckets_;        // indexed by degree
  std::vector<std::uint32_t> degree_;  // per slot; kAbsent if not indexed
  std::uint64_t live_ = 0;             // indexed slots
  std::uint32_t max_hint_ = 0;
  std::uint32_t min_hint_ = 0;
  bool built_ = false;
};

}  // namespace churnet

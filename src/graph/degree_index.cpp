// Cold paths of the degree-bucket index: set-up, growth, the query walk and
// the consistency audit.
#include "graph/degree_index.hpp"

namespace churnet {

void DegreeIndex::start(std::uint32_t slot_bound) {
  drop();
  degree_.assign(slot_bound, kAbsent);
  built_ = true;
}

void DegreeIndex::drop() {
  buckets_ = {};
  degree_ = {};
  live_ = 0;
  max_hint_ = 0;
  min_hint_ = 0;
  built_ = false;
}

std::uint32_t DegreeIndex::extreme_slot(bool maximize) {
  CHURNET_EXPECTS(live_ > 0);
  std::uint32_t& hint = maximize ? max_hint_ : min_hint_;
  while (buckets_[hint].count == 0) {
    if (maximize) {
      --hint;
    } else {
      ++hint;
    }
  }
  const Bucket& bucket = buckets_[hint];
  const Bitset64::Word* summary = bucket.summary.words();
  for (std::uint64_t w = 0; w < bucket.summary.word_count(); ++w) {
    if (summary[w] == 0) continue;
    const std::uint64_t word =
        w * Bitset64::kWordBits + std::countr_zero(summary[w]);
    return static_cast<std::uint32_t>(
        word * Bitset64::kWordBits +
        std::countr_zero(bucket.members.words()[word]));
  }
  CHURNET_ASSERT(false && "nonempty bucket with an empty summary");
  return kAbsent;
}

void DegreeIndex::grow_slots(std::uint32_t slot) {
  // Geometric growth, so a population that creeps past its historical
  // peak reallocates O(log) times, not once per new slot.
  const std::size_t wanted = static_cast<std::size_t>(slot) + 1;
  degree_.resize(std::max(wanted, degree_.size() + degree_.size() / 2),
                 kAbsent);
}

void DegreeIndex::grow_buckets(std::uint32_t degree) {
  const std::size_t wanted = static_cast<std::size_t>(degree) + 1;
  buckets_.resize(std::max(wanted, 2 * buckets_.size()));
}

void DegreeIndex::fit_bucket(Bucket& bucket) const {
  bucket.members.resize(degree_.size());
  bucket.summary.resize((degree_.size() + Bitset64::kWordBits - 1) /
                        Bitset64::kWordBits);
}

bool DegreeIndex::consistent() const {
  if (!built_) return true;
  std::uint64_t indexed = 0;
  for (std::uint32_t slot = 0; slot < degree_.size(); ++slot) {
    const std::uint32_t degree = degree_[slot];
    for (std::uint32_t d = 0; d < buckets_.size(); ++d) {
      if (buckets_[d].members.test(slot) != (d == degree)) return false;
    }
    if (degree == kAbsent) continue;
    if (degree >= buckets_.size()) return false;
    ++indexed;
  }
  if (indexed != live_) return false;
  for (std::uint32_t d = 0; d < buckets_.size(); ++d) {
    const Bucket& bucket = buckets_[d];
    if (bucket.members.count() != bucket.count) return false;
    for (std::uint64_t w = 0; w < bucket.members.word_count(); ++w) {
      if (bucket.summary.test(w) != (bucket.members.words()[w] != 0)) {
        return false;
      }
    }
    if (bucket.count > 0 && (d > max_hint_ || d < min_hint_)) return false;
  }
  return live_ == 0 || max_hint_ < buckets_.size();
}

}  // namespace churnet

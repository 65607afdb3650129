// RowMask: a packed per-row bitmap, the currency of the vectorized scan layer.
//
// Every batch operation in the library — policy classification, WHERE-clause
// filtering, masked histogram construction — produces or consumes a RowMask.
// Bits are stored 64 per word so that logical combination (AND/OR/NOT) runs
// word-at-a-time, counting runs on one popcount kernel (CountAndWords, which
// uses the popcnt instruction on x86-64 hosts that have it), and iteration
// over the selected rows runs on count-trailing-zeros rather than a per-row
// branch.

#ifndef OSDP_DATA_ROW_MASK_H_
#define OSDP_DATA_ROW_MASK_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace osdp {

/// \brief Number of set bits in words [word_begin, word_end) of `a` ANDed
/// with `b`, or of `a` alone when `b` is nullptr. The one popcount kernel:
/// RowMask::Count and the sharded counts (src/runtime/parallel_scan.h) all
/// run it, so an intersection is counted in one pass with no scratch mask.
/// On x86-64 it is compiled twice, with and without the popcnt instruction,
/// and the loader picks the clone the CPU supports (ThreadSanitizer builds
/// compile only the plain loop; see src/common/target_clones.h).
size_t CountAndWords(const uint64_t* a, const uint64_t* b, size_t word_begin,
                     size_t word_end);

/// \brief Fixed-size packed bitmap over row indices [0, size).
///
/// Word layout: bit i lives at words()[i / 64] bit (i % 64). Bits past
/// `size()` in the last word are kept zero (every mutator restores this
/// invariant), so Count() and word-wise combination need no special casing.
class RowMask {
 public:
  RowMask() = default;

  /// Mask over `size` rows, all bits set to `value`.
  explicit RowMask(size_t size, bool value = false)
      : size_(size), words_(NumWords(size), value ? ~uint64_t{0} : 0) {
    ClearTail();
  }

  /// Builds from a bool vector (bridge from the legacy mask representation).
  static RowMask FromBools(const std::vector<bool>& bools) {
    RowMask m(bools.size());
    for (size_t i = 0; i < bools.size(); ++i) {
      if (bools[i]) m.words_[i >> 6] |= uint64_t{1} << (i & 63);
    }
    return m;
  }

  /// Number of rows covered.
  size_t size() const { return size_; }
  /// True iff no rows are covered.
  bool empty() const { return size_ == 0; }

  /// Bit of row i.
  bool Test(size_t i) const {
    OSDP_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Sets bit of row i to `value`.
  void Set(size_t i, bool value = true) {
    OSDP_DCHECK(i < size_);
    const uint64_t bit = uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= bit;
    } else {
      words_[i >> 6] &= ~bit;
    }
  }

  /// \brief Grows the mask to cover `new_size` rows (>= size()); existing
  /// bits are preserved and the new bits are zero. This is the streaming
  /// ingest primitive: TableBuilder extends the policy mask in place as
  /// batches arrive, then evaluates only the appended rows.
  void Resize(size_t new_size) {
    OSDP_CHECK(new_size >= size_);
    // Bits past the old size() were kept zero by the class invariant, so
    // growing is just sizing the word vector; no bit surgery needed.
    size_ = new_size;
    words_.resize(NumWords(new_size), 0);
  }

  /// Sets every bit to `value`.
  void SetAll(bool value) {
    std::fill(words_.begin(), words_.end(), value ? ~uint64_t{0} : 0);
    ClearTail();
  }

  /// Number of set bits.
  size_t Count() const {
    return CountAndWords(words_.data(), nullptr, 0, words_.size());
  }

  /// \name In-place logical combination; operands must cover equal row counts.
  /// @{
  RowMask& AndWith(const RowMask& other) {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }
  RowMask& OrWith(const RowMask& other) {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }
  RowMask& AndNotWith(const RowMask& other) {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
  }
  /// Complements every bit.
  RowMask& FlipAll() {
    for (uint64_t& w : words_) w = ~w;
    ClearTail();
    return *this;
  }
  /// @}

  /// True iff any bit is set in both masks; short-circuits on the first
  /// overlapping word (no copies, no full popcount).
  bool Intersects(const RowMask& other) const {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  /// True iff every set bit of this mask is also set in `other`.
  bool IsSubsetOf(const RowMask& other) const {
    OSDP_CHECK(other.size_ == size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & ~other.words_[i]) != 0) return false;
    }
    return true;
  }

  /// Calls fn(row) for every set bit, in ascending row order. Iteration cost
  /// is proportional to the number of set bits, not size().
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn((wi << 6) + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// Calls fn(row) for every set bit in [begin, end), in ascending row
  /// order — ForEachSet restricted to a row range. Partial first/last words
  /// are handled, so the range need not be word-aligned. Concurrent calls on
  /// disjoint (or even overlapping) ranges of a const mask are safe: the
  /// traversal only reads.
  template <typename Fn>
  void ForEachSetInRange(size_t begin, size_t end, Fn&& fn) const {
    ForEachSetAndInRange(nullptr, begin, end, std::forward<Fn>(fn));
  }

  /// ForEachSetInRange over this mask ANDed with `other` (same size), word
  /// by word as the traversal goes, so the intersection is never
  /// materialized; nullptr means this mask alone.
  template <typename Fn>
  void ForEachSetAndInRange(const RowMask* other, size_t begin, size_t end,
                            Fn&& fn) const {
    OSDP_DCHECK(begin <= end && end <= size_);
    OSDP_DCHECK(other == nullptr || other->size_ == size_);
    if (begin >= end) return;
    const uint64_t* and_words = other != nullptr ? other->words() : nullptr;
    const size_t first_word = begin >> 6;
    const size_t last_word = (end - 1) >> 6;
    for (size_t wi = first_word; wi <= last_word; ++wi) {
      uint64_t w = words_[wi];
      if (and_words != nullptr) w &= and_words[wi];
      if (wi == first_word && (begin & 63) != 0) {
        w &= ~uint64_t{0} << (begin & 63);
      }
      if (wi == last_word && (end & 63) != 0) {
        w &= (uint64_t{1} << (end & 63)) - 1;
      }
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn((wi << 6) + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// The set rows as an ascending index vector.
  std::vector<size_t> ToIndices() const {
    std::vector<size_t> out;
    out.reserve(Count());
    ForEachSet([&](size_t row) { out.push_back(row); });
    return out;
  }

  /// Bridge back to the legacy bool-vector representation.
  std::vector<bool> ToBools() const {
    std::vector<bool> out(size_, false);
    ForEachSet([&](size_t row) { out[row] = true; });
    return out;
  }

  bool operator==(const RowMask& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const RowMask& other) const { return !(*this == other); }

  /// \name Raw word access for vectorized producers (CompiledPredicate).
  /// @{
  size_t num_words() const { return words_.size(); }
  uint64_t word(size_t i) const { return words_[i]; }
  uint64_t* mutable_words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }
  /// Zeroes the bits past size() in the last word; producers that write raw
  /// words call this once at the end to restore the class invariant.
  void ClearTail() {
    const size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }
  /// @}

 private:
  static size_t NumWords(size_t size) { return (size + 63) / 64; }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace osdp

#endif  // OSDP_DATA_ROW_MASK_H_

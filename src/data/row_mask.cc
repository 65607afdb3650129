#include "src/data/row_mask.h"

#include "src/common/target_clones.h"

namespace osdp {

// Without -mpopcnt, __builtin_popcountll compiles to a libgcc call on
// x86-64; the popcnt clone runs on CPUs that have the instruction.
OSDP_TARGET_CLONES("popcnt", "default")
size_t CountAndWords(const uint64_t* a, const uint64_t* b, size_t word_begin,
                     size_t word_end) {
  size_t n = 0;
  if (b == nullptr) {
    for (size_t i = word_begin; i < word_end; ++i) {
      n += static_cast<size_t>(__builtin_popcountll(a[i]));
    }
  } else {
    for (size_t i = word_begin; i < word_end; ++i) {
      n += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
    }
  }
  return n;
}

}  // namespace osdp

#include "src/data/row_mask.h"

namespace osdp {

// Without -mpopcnt, __builtin_popcountll compiles to a libgcc call on
// x86-64. The clones keep the default build flags: glibc's ifunc resolver
// runs the popcnt clone on CPUs that have the instruction. ThreadSanitizer
// builds take the plain loop: the resolver runs before the TSan runtime is
// initialized, and its instrumented entry crashes the process at load.
// GCC flags TSan with __SANITIZE_THREAD__, Clang with __has_feature.
#if defined(__SANITIZE_THREAD__)
#define OSDP_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OSDP_TSAN_BUILD 1
#endif
#endif

#if defined(__x86_64__) && defined(__linux__) && !defined(OSDP_TSAN_BUILD)
__attribute__((target_clones("popcnt", "default")))
#endif
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

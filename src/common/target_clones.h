// OSDP_TARGET_CLONES(...): compiles a hot kernel once per listed target with
// GCC's target_clones attribute, so a build with the default -O2 flags still
// runs popcnt or AVX2 code on x86-64 CPUs that have it: glibc's ifunc
// resolver picks the clone at load time. Elsewhere it expands to nothing.
//
// ThreadSanitizer builds take the plain function: the resolver runs before
// the TSan runtime is initialized, and its instrumented entry crashes the
// process at load. GCC flags TSan with __SANITIZE_THREAD__, Clang with
// __has_feature.

#ifndef OSDP_COMMON_TARGET_CLONES_H_
#define OSDP_COMMON_TARGET_CLONES_H_

#if defined(__SANITIZE_THREAD__)
#define OSDP_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OSDP_TSAN_BUILD 1
#endif
#endif

#if defined(__x86_64__) && defined(__linux__) && !defined(OSDP_TSAN_BUILD)
#define OSDP_TARGET_CLONES(...) __attribute__((target_clones(__VA_ARGS__)))
#else
#define OSDP_TARGET_CLONES(...)
#endif

#endif  // OSDP_COMMON_TARGET_CLONES_H_

#pragma once

// The wall-clock bound for tests that prove hostile input costs bounded
// work: a second in an optimized build. Debug and sanitizer builds run the
// same bounded work several times slower, so there the bound only has to
// tell bounded work from a hang.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CODAR_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CODAR_SANITIZED_BUILD 1
#endif
#endif

namespace codar::testing {

#if defined(CODAR_SANITIZED_BUILD) || !defined(NDEBUG)
inline constexpr double kBoundedWorkSeconds = 10.0;
#else
inline constexpr double kBoundedWorkSeconds = 1.0;
#endif

}  // namespace codar::testing

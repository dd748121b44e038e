// Hardened environment-variable parsing.
//
// The simulator reads a handful of knobs from the environment
// (O2K_EXEC_STACK_KB, O2K_WORKERS, O2K_SANITIZE, ...).  Unattended
// campaign runs hit these with whatever a sweep script exported, so a typo
// like `O2K_EXEC_STACK_KB=64MB` must not silently parse as 0 (the classic
// strtol-without-endptr bug) and size a stack nonsensically.  env_int
// parses with an end pointer, range-checks, warns once to stderr, and
// falls back to the caller's default on any invalid value.
#pragma once

#include <cstdint>
#include <optional>

namespace o2k::common {

/// Parse `name` from the environment as a decimal integer.
///
/// Returns std::nullopt — after printing one warning line to stderr naming
/// the variable and the offending value — when the variable is set but
/// empty, not fully numeric (trailing junk like "64MB"), or outside
/// [min, max].  Returns std::nullopt silently when the variable is unset.
std::optional<std::int64_t> env_int(const char* name, std::int64_t min, std::int64_t max);

/// Convenience wrapper: env_int with a fallback value for every invalid or
/// unset case.
std::int64_t env_int_or(const char* name, std::int64_t fallback, std::int64_t min,
                        std::int64_t max);

}  // namespace o2k::common

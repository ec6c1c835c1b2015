//===- tools/NumericFlag.h - Strict integer flag values ---------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parsers behind every numeric flag of thistle-opt, thistle-serve
/// and thistle-query. An integer value is accepted only when the whole
/// token is a base-10 integer inside the flag's range; anything else
/// (`abc`, `4x`, ` 4`, `+4`, an overflowing `99999999999`, an
/// out-of-range `0`) is rejected before any work starts, with exit code
/// 2 and a diagnostic naming the flag. Real-valued flags
/// (`--area-budget`) take one whole decimal number that is finite and
/// positive, under the same rules.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_TOOLS_NUMERICFLAG_H
#define THISTLE_TOOLS_NUMERICFLAG_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace thistle {

/// Ceiling of every count-like flag (deadlines in ms, capacities,
/// architecture sizes, layer dimensions): the largest 32-bit int.
inline constexpr long long MaxFlagCount = 2147483647;

/// Ceiling of every --threads flag (0 means one per hardware thread).
inline constexpr long long MaxThreads = 1024;

/// True when \p Text is exactly one base-10 integer in [\p Min, \p Max];
/// the value is stored in \p Out.
inline bool parseIntToken(std::string_view Text, long long Min,
                          long long Max, long long &Out) {
  long long Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End || Value < Min || Value > Max)
    return false;
  Out = Value;
  return true;
}

/// The value of integer flag \p Flag given as \p Text. Exits 2 with
/// "error: <flag> wants an integer in <min>..<max>, got '<text>'" unless
/// parseIntToken accepts it.
inline long long parseIntFlag(const char *Flag, const char *Text,
                              long long Min, long long Max) {
  long long Value = 0;
  if (!parseIntToken(Text, Min, Max, Value)) {
    std::fprintf(stderr, "error: %s wants an integer in %lld..%lld, got '%s'\n",
                 Flag, Min, Max, Text);
    std::exit(2);
  }
  return Value;
}

/// The value of real-valued flag \p Flag given as \p Text: exactly one
/// decimal number (`3.5`, `2e6`) that is finite and positive. Exits 2
/// with "error: <flag> wants a finite positive number, got '<text>'"
/// otherwise.
inline double parsePositiveFlag(const char *Flag, const char *Text) {
  double Value = 0.0;
  const std::string_view Token = Text;
  const char *End = Token.data() + Token.size();
  auto [Ptr, Ec] = std::from_chars(Token.data(), End, Value);
  if (Ec != std::errc() || Ptr != End || !std::isfinite(Value) ||
      Value <= 0.0) {
    std::fprintf(stderr,
                 "error: %s wants a finite positive number, got '%s'\n",
                 Flag, Text);
    std::exit(2);
  }
  return Value;
}

} // namespace thistle

#endif // THISTLE_TOOLS_NUMERICFLAG_H

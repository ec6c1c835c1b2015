//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-injection harness for exercising the solve
/// pipeline's degradation paths. Production code plants named *sites*
/// (`fault::shouldFail("thistle.pair", TaskIdx)`); tests and the
/// command-line tool *arm* a site, optionally restricted to one key and
/// a bounded number of hits, to force solver non-convergence, NaN
/// gradients, parse errors or whole-pair failures on demand.
///
/// Determinism: a site fires based on its armed (key, budget) state and
/// the caller-supplied key — never on wall clock or thread schedule — so
/// keyed injections (e.g. "fail pair 3") reproduce bit-identically at
/// any --threads. Unkeyed injections with a finite hit budget consume it
/// in first-come order and are only deterministic single-threaded.
///
/// The harness compiles in under the THISTLE_FAULT_INJECTION CMake
/// option (default ON). When compiled out, every hook collapses to a
/// constant-false inline with zero overhead, and arming is a no-op.
///
/// Known sites (docs/ROBUSTNESS.md):
///   solver.nonconverge  phase II never reaches its tolerance
///   solver.nan-grad     poisons a Newton gradient with NaN
///   solver.infeasible   phase I reports no strictly feasible point
///   thistle.pair        keyed by task index: the pair's solve fails, at
///                       any hierarchy depth
///   thistle.deadline    keyed by task index: under a deadline, the task
///                       finds it expired and is skipped
///   parse.hierarchy     parseHierarchy rejects the input
///   persist.write-fail  keyed by artifact (0 snapshot, 1 journal):
///                       the durable write fails outright
///   persist.torn-write  same keys: the payload is truncated mid-write
///   persist.corrupt-crc same keys: one payload byte is bit-flipped
///   persist.kill        keyed by journal record count (1 = the first
///                       record since the journal was opened): the
///                       process SIGKILLs itself once it is flushed
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_FAULTINJECTION_H
#define THISTLE_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <string>

namespace thistle {
namespace fault {

/// Key wildcard: an armed site with AnyKey fires for every key; a
/// shouldFail call with AnyKey fires whenever its site is armed.
inline constexpr std::int64_t AnyKey = -1;

/// Unlimited hit budget.
inline constexpr unsigned Unlimited = ~0u;

#if THISTLE_FAULT_INJECTION_ENABLED

/// True when the harness is compiled in.
constexpr bool enabled() { return true; }

/// Arms \p Site: subsequent shouldFail(Site, K) returns true when
/// \p Key is AnyKey or equals K, for at most \p MaxHits firings.
/// Re-arming a site replaces its previous state.
void arm(const std::string &Site, std::int64_t Key = AnyKey,
         unsigned MaxHits = Unlimited);

/// Disarms one site / every site.
void disarm(const std::string &Site);
void disarmAll();

/// The production-side hook. Returns true (and consumes one hit) when
/// \p Site is armed for \p Key. Thread-safe; constant-false when no
/// site at all is armed (the fast path costs one relaxed atomic load).
bool shouldFail(const char *Site, std::int64_t Key = AnyKey);

/// Number of times \p Site fired since it was last armed.
unsigned hitCount(const std::string &Site);

/// Arms sites from a spec string: "site[:key[:maxhits]][,site...]",
/// e.g. "thistle.pair:3" or "solver.nan-grad::1". Returns a ParseError
/// diagnostic string on malformed input, empty on success.
std::string armFromSpec(const std::string &Spec);

/// Arms from the THISTLE_FAULT environment variable if set. Returns the
/// armFromSpec diagnostic (empty when unset or well-formed).
std::string armFromEnv();

#else

constexpr bool enabled() { return false; }
inline void arm(const std::string &, std::int64_t = AnyKey,
                unsigned = Unlimited) {}
inline void disarm(const std::string &) {}
inline void disarmAll() {}
constexpr bool shouldFail(const char *, std::int64_t = AnyKey) {
  return false;
}
inline unsigned hitCount(const std::string &) { return 0; }
inline std::string armFromSpec(const std::string &) {
  return "fault injection compiled out (THISTLE_FAULT_INJECTION=OFF)";
}
inline std::string armFromEnv() { return std::string(); }

#endif // THISTLE_FAULT_INJECTION_ENABLED

} // namespace fault
} // namespace thistle

#endif // THISTLE_SUPPORT_FAULTINJECTION_H

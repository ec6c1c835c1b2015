//===- nestmodel/CostEvaluator.h - Pluggable evaluator backends -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend-neutral cost-model interface: a CostEvaluator turns
/// (problem, hierarchy, mapping) into per-level access counts
/// (MultiProfile) and, through the shared priceMultiProfile pricing, into
/// the Eq. 3 energy and Eq. 5 delay metrics (MultiEvalResult). Every
/// consumer of the analytical model — the stochastic mapper, the L-level
/// GP rounding sweep, and the classic 3-level rounding path — scores
/// candidates through this interface; passing no evaluator selects the
/// Timeloop-style nest model, bit-identically to the pre-interface code.
///
/// Two backends ship in-tree:
///  - "nest" (this header): the Algorithm-1 loop-nest walk of
///    multilevel/MultiNestAnalysis, the default.
///  - "maestro" (nestmodel/MaestroModel.h): a MAESTRO-style data-centric
///    reuse analysis that derives the same counts from per-tensor
///    stationary/multicast/streaming reuse instead of walking the nest.
///
/// Because both backends feed the same pricing, any disagreement is a
/// counting bug in one of them. CrossCheckEvaluator runs a primary and a
/// reference backend side by side on every evaluation, returns the
/// primary's result (so search trajectories stay bit-identical to the
/// primary alone), and accumulates a divergence report that thistle-opt
/// --evaluator both emits into the run report. Third-party backends
/// register with registerCostEvaluator; docs/EVALUATOR.md walks through
/// adding one.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_NESTMODEL_COSTEVALUATOR_H
#define THISTLE_NESTMODEL_COSTEVALUATOR_H

#include "multilevel/MultiNestAnalysis.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace thistle {

/// Abstract cost-model backend. Implementations must be stateless with
/// respect to evaluations (const, thread-safe): the mapper and the pair
/// sweep call evaluate() concurrently from pool workers.
class CostEvaluator {
public:
  virtual ~CostEvaluator();

  /// Stable backend name ("nest", "maestro", ...): the registry key, the
  /// --evaluator spelling and the run-report backend string.
  virtual const char *name() const = 0;

  /// Computes the per-boundary/per-tensor access counts, the per-level
  /// occupancy and the PE usage of \p Map on \p H. Both must validate.
  virtual MultiProfile profile(const Problem &Prob, const Hierarchy &H,
                               const MultiMapping &Map) const = 0;

  /// Full evaluation: profile() plus the shared capacity/energy/delay
  /// pricing. Backends that agree on counts agree on metrics bit for
  /// bit. Counts one thistle.evaluator.evals telemetry tick.
  virtual MultiEvalResult evaluate(const Problem &Prob, const Hierarchy &H,
                                   const MultiMapping &Map) const;
};

/// The default Timeloop-style backend: Algorithm 1's inner-to-outer
/// loop-nest walk (analyzeMultiNest). evaluate() is bit-identical to
/// calling evaluateMultiMapping directly.
class NestCostEvaluator : public CostEvaluator {
public:
  const char *name() const override { return "nest"; }
  MultiProfile profile(const Problem &Prob, const Hierarchy &H,
                       const MultiMapping &Map) const override;
};

/// The process-wide nest backend instance.
const CostEvaluator &nestCostEvaluator();

/// Consumer-side default resolution: options carry a nullable evaluator
/// pointer, null meaning "the nest model" (the pre-interface behavior).
inline const CostEvaluator &resolveCostEvaluator(const CostEvaluator *E) {
  return E ? *E : nestCostEvaluator();
}

/// Looks up a registered backend by name; null when unknown. "nest" and
/// "maestro" are pre-registered.
const CostEvaluator *costEvaluator(const std::string &Name);

/// Registers \p Backend (which must outlive the process use of it) under
/// \p Name, replacing any previous registration of that name.
void registerCostEvaluator(const std::string &Name,
                           const CostEvaluator *Backend);

/// All registered backend names, sorted.
std::vector<std::string> costEvaluatorNames();

/// One counter on which two profiles disagree.
struct DivergenceSample {
  std::string Counter; ///< E.g. "words[b1][Out]", "occupancy[l0]".
  std::int64_t Primary = 0;
  std::int64_t Reference = 0;
};

/// Field-by-field diff of two profiles of the same (problem, hierarchy).
/// Every field of MultiProfile is an exact integer count, so any delta is
/// a model divergence; Max*Delta summarize the magnitudes.
struct ProfileDivergence {
  std::uint64_t CountersCompared = 0;
  std::uint64_t CounterMismatches = 0;
  double MaxAbsDelta = 0.0;
  /// Relative to max(1, |reference|).
  double MaxRelDelta = 0.0;
  std::vector<DivergenceSample> Samples; ///< Capped at MaxSamples.
  static constexpr std::size_t MaxSamples = 8;

  bool diverged() const { return CounterMismatches != 0; }
};

/// Compares \p Primary against \p Reference counter by counter. \p Prob
/// and \p H supply the tensor/level names for the sample labels.
ProfileDivergence compareProfiles(const Problem &Prob, const Hierarchy &H,
                                  const MultiProfile &Primary,
                                  const MultiProfile &Reference);

/// Aggregate divergence statistics of one cross-checked run. All fields
/// are commutative aggregates (sums, maxima) plus a bounded first-come
/// sample list, so the totals are thread-count invariant.
struct CrossCheckStats {
  std::uint64_t Evals = 0;          ///< Evaluations cross-checked.
  std::uint64_t DivergentEvals = 0; ///< Evaluations with any mismatch.
  std::uint64_t CountersCompared = 0;
  std::uint64_t CounterMismatches = 0;
  double MaxAbsDelta = 0.0;
  double MaxRelDelta = 0.0;
  std::vector<DivergenceSample> Samples; ///< First few mismatches seen.
};

/// The --evaluator both backend: scores with \p Primary (so the search
/// trajectory and the winner are bit-identical to running the primary
/// alone) while also running \p Reference on every evaluation and
/// folding the diff into stats(). Divergent evaluations tick the
/// thistle.evaluator.divergences telemetry counter.
class CrossCheckEvaluator : public CostEvaluator {
public:
  CrossCheckEvaluator(const CostEvaluator &Primary,
                      const CostEvaluator &Reference)
      : Primary(Primary), Reference(Reference) {}

  const char *name() const override { return "both"; }
  MultiProfile profile(const Problem &Prob, const Hierarchy &H,
                       const MultiMapping &Map) const override;

  /// Snapshot of the accumulated statistics.
  CrossCheckStats stats() const;

private:
  const CostEvaluator &Primary;
  const CostEvaluator &Reference;
  mutable std::mutex Mutex;
  mutable CrossCheckStats Stats;
};

} // namespace thistle

#endif // THISTLE_NESTMODEL_COSTEVALUATOR_H

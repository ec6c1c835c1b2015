//===- nestmodel/Objective.h - Search objectives ----------------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The objective an optimizer or search minimizes, shared by every layer
/// that ranks designs: the GP co-design engine (thistle/) at every
/// hierarchy depth, the stochastic mapper baseline (nestmodel/Mapper)
/// and the rounding pass. Lives in its own leaf
/// header so evaluation (Evaluator.h) and search (Mapper.h) no longer
/// need forward-declaration tricks to share the enum.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_NESTMODEL_OBJECTIVE_H
#define THISTLE_NESTMODEL_OBJECTIVE_H

namespace thistle {

struct EvalResult;
struct MultiEvalResult;

/// What the search minimizes.
enum class SearchObjective {
  Energy, ///< Total energy (pJ).
  Delay,  ///< Total cycles.
  /// Energy-delay product. The paper's formulation supports it ("energy
  /// or delay (or energy-delay product)") without evaluating it; this
  /// library implements it as an extension.
  EnergyDelayProduct,
};

/// The scalar value an optimizer minimizes for \p Objective.
double objectiveValue(const EvalResult &Eval, SearchObjective Objective);

/// Same, for the hierarchy-generic evaluation. Bit-identical to the
/// EvalResult overload on a classic 3-level machine.
double objectiveValue(const MultiEvalResult &Eval, SearchObjective Objective);

} // namespace thistle

#endif // THISTLE_NESTMODEL_OBJECTIVE_H

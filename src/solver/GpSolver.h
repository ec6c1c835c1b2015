//===- solver/GpSolver.h - Interior-point GP solver -------------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Solves geometric programs by the standard convex transformation: with
/// x = exp(y), a posynomial constraint f(x) <= 1 becomes the convex
/// log-sum-exp constraint log f(exp y) <= 0 and a monomial equality
/// becomes an affine equality in y. The affine equalities are eliminated
/// by parameterizing y = y0 + Z z over the null space Z, and the reduced
/// problem is solved with a primal barrier (interior-point) method:
/// phase I finds a strictly feasible point by minimizing the maximum
/// constraint value; phase II follows the central path with damped Newton
/// steps. This module replaces the paper's CVXPY dependency.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SOLVER_GPSOLVER_H
#define THISTLE_SOLVER_GPSOLVER_H

#include "solver/GpProblem.h"

#include <limits>
#include <string>
#include <vector>

namespace thistle {

/// Interior-point configuration.
struct GpSolverOptions {
  /// Barrier gap tolerance: iterate until NumConstraints / t < Tolerance
  /// (absolute tolerance on the log-space objective).
  double Tolerance = 1e-7;
  /// First barrier weight per inequality: phases I and II both start
  /// at t = m * TInitial, m the number of inequalities.
  double TInitial = 1.0;
  double TMultiplier = 20.0; ///< Barrier weight growth per outer step.
  unsigned MaxNewtonIters = 250; ///< Per centering step.
  unsigned MaxOuterIters = 50;
  /// Deterministic perturbation of the reduced-space start point
  /// (z_i += StartPerturbation * sin(i+1)); the retry ladder uses it to
  /// escape a bad phase-I trajectory. 0 keeps the classic zero start.
  double StartPerturbation = 0.0;
  /// Internal rescaling of the objective before the log transform
  /// (minimizes f/ObjectiveScale; same argmin, better-conditioned
  /// offsets for huge coefficient spreads). The reported Objective is
  /// always evaluated on the original posynomial.
  double ObjectiveScale = 1.0;
  /// Retry-ladder length (including the first attempt) used by
  /// solveGpWithRetry on retriable failures.
  unsigned MaxSolveAttempts = 3;
};

/// How one solve ended, for retry and sweep-report classification.
enum class SolveOutcome {
  Converged,          ///< Feasible and within tolerance.
  NotConverged,       ///< Feasible but the outer loop hit its cap.
  Infeasible,         ///< No strictly feasible point (model property).
  NumericalBreakdown, ///< Newton/Cholesky failure in either phase.
  NonFinite,          ///< NaN/inf leaked into the iterate or objective.
};

const char *solveOutcomeName(SolveOutcome Outcome);

/// Solver outcome.
struct GpSolution {
  bool Feasible = false;  ///< A strictly feasible point was found.
  bool Converged = false; ///< The barrier method reached its tolerance.
  SolveOutcome Outcome = SolveOutcome::Infeasible;
  Assignment Values;      ///< x per VarId (valid when Feasible).
  double Objective = std::numeric_limits<double>::infinity();
  unsigned NewtonIterations = 0; ///< Total Newton steps, both phases.
  std::string Failure;    ///< Human-readable reason when !Feasible.
};

/// One rung of the retry ladder, for diagnostics.
struct GpSolveAttempt {
  SolveOutcome Outcome = SolveOutcome::Infeasible;
  unsigned NewtonIterations = 0;
};

/// What the retry ladder did for one problem.
struct GpSolveReport {
  std::vector<GpSolveAttempt> Attempts;
  /// True when a retry (attempt > 0) produced the returned solution.
  bool Recovered = false;
  unsigned attempts() const {
    return static_cast<unsigned>(Attempts.size());
  }
};

/// Solves \p Problem. The objective must be a non-empty posynomial.
GpSolution solveGp(const GpProblem &Problem,
                   const GpSolverOptions &Options = GpSolverOptions());

/// Solves \p Problem with the retry ladder: on a *retriable* failure
/// (numerical breakdown, non-finite iterates, non-convergence — never
/// genuine infeasibility) it re-solves with a deterministically
/// perturbed phase-I start, a gentler barrier schedule and objective
/// rescaling, classifying every attempt in \p Report. Returns the best
/// attempt under Converged > NotConverged > breakdown-with-iterate >
/// Infeasible > NonFinite, preferring the earliest attempt on ties, so
/// a run where the first attempt succeeds is bit-identical to solveGp.
/// The returned NewtonIterations is the total across attempts.
GpSolution solveGpWithRetry(const GpProblem &Problem,
                            const GpSolverOptions &Options,
                            GpSolveReport *Report = nullptr);

} // namespace thistle

#endif // THISTLE_SOLVER_GPSOLVER_H

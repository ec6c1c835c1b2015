//===- solver/GpSolver.cpp - Interior-point GP solver ---------------------===//
//
// The barrier-Newton inner loops (log-sum-exp value/gradient/Hessian
// assembly, the regularized Newton solve, the backtracking line search)
// run on the SIMD kernel layer (linalg/Kernels.h): LSE exponent rows are
// stored as one contiguous matrix, per-iteration buffers live in a
// SolverScratch that is reused across the whole solve, and the Newton
// regularization ladder factors one lambda rung at a time until one
// succeeds. Results are bit-identical across every THISTLE_SIMD setting
// (see docs/PERF.md).
//
//===----------------------------------------------------------------------===//

#include "solver/GpSolver.h"

#include "linalg/Kernels.h"
#include "linalg/Matrix.h"
#include "solver/LogSumExp.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <string>

using namespace thistle;

namespace {

/// True when every entry is finite (guards Newton against NaN/inf
/// leaking out of an ill-conditioned derivative evaluation).
bool allFinite(const Vector &V) {
  for (double X : V)
    if (!std::isfinite(X))
      return false;
  return true;
}

/// Per-solve scratch: every buffer the barrier-Newton loops need, sized
/// once and reused so the hot path performs no per-iteration heap
/// allocation.
struct SolverScratch {
  Vector E;          ///< LSE exponent buffer.
  Vector Gz;         ///< Objective/constraint gradient.
  Matrix Hz;         ///< Objective/constraint Hessian.
  Vector Gw;         ///< Phase-one gradient with the slack lane.
  Vector Zs;         ///< Phase-one slice of W (drops the slack).
  Vector Grad;       ///< Barrier gradient.
  Matrix Hess;       ///< Barrier Hessian.
  Vector NegGrad;    ///< Newton right-hand side.
  Vector Step;       ///< Newton direction.
  Vector Trial;      ///< Line-search trial point.
  Vector Factor;     ///< H + lambda I, then its Cholesky factor.
  Vector Transposed; ///< The factor's transpose (back substitution).
};

/// Barrier-method state shared by the two phases.
struct BarrierContext {
  LseFunction Objective;
  std::vector<LseFunction> Constraints;
  unsigned NewtonIterations = 0;
};

/// One centering step: minimizes T * f(W) + Phi(W) where f is the phase
/// objective and Phi the log barrier of the phase constraints, starting
/// from the strictly feasible \p W. \p PhaseOne switches the objective to
/// the slack variable (last coordinate of W) and offsets every constraint
/// by -s. Returns false on numerical failure.
///
/// In phase one, W = (z, s) and constraints are G_i(z) - s <= 0.
/// In phase two, W = z and constraints are G_i(z) <= 0.
class CenteringProblem {
public:
  CenteringProblem(const BarrierContext &Ctx, bool PhaseOne)
      : Ctx(Ctx), PhaseOne(PhaseOne) {}

  /// True if every constraint is strictly negative at W.
  bool strictlyFeasible(const Vector &W, SolverScratch &S) const {
    const Vector &Z = sliceW(W, S);
    for (const LseFunction &C : Ctx.Constraints) {
      double G = C.value(Z, S.E);
      if (PhaseOne)
        G -= W.back();
      if (G >= 0.0)
        return false;
    }
    return true;
  }

  /// Phase objective value (no barrier).
  double objectiveValue(const Vector &W, SolverScratch &S) const {
    if (PhaseOne)
      return W.back();
    return Ctx.Objective.value(W, S.E);
  }

  /// Full barrier objective T*f + Phi; +inf outside the domain.
  double barrierValue(double T, const Vector &W, SolverScratch &S) const {
    double Phi = 0.0;
    const Vector &Z = sliceW(W, S);
    for (const LseFunction &C : Ctx.Constraints) {
      double G = C.value(Z, S.E);
      if (PhaseOne)
        G -= W.back();
      if (G >= 0.0)
        return std::numeric_limits<double>::infinity();
      Phi -= std::log(-G);
    }
    return T * objectiveValue(W, S) + Phi;
  }

  /// Bound on the half squared Newton decrement below which a centering
  /// step ends at barrier value \p Psi. Phase II stops where doubles stop
  /// resolving the line search: near t = 1e9, Psi is of order 1e10, so
  /// the Armijo test of a 1e-10 decrease compares rounding noise. Phase
  /// I keeps the plain 1e-10, as its centered exit backs the
  /// infeasibility certificate.
  double decrementTolerance(double Psi) const {
    if (PhaseOne)
      return 1e-10;
    return std::max(1e-10, 16.0 * std::numeric_limits<double>::epsilon() *
                               std::fabs(Psi));
  }

  /// Gradient and Hessian of the barrier objective at strictly feasible W.
  /// \p Grad / \p Hess are overwritten; the remaining scratch buffers of
  /// \p S (E, Gz, Hz, Gw, Zs) are clobbered. An affine (one-term)
  /// function adds no curvature of its own.
  void barrierDerivatives(double T, const Vector &W, Vector &Grad,
                          Matrix &Hess, SolverScratch &S) const {
    const std::size_t N = W.size();
    Grad.assign(N, 0.0);
    Hess.reset(N, N);

    // Objective part.
    if (PhaseOne) {
      Grad[N - 1] += T;
    } else {
      const bool Affine = Ctx.Objective.affine();
      Ctx.Objective.valueGradHess(W, S.Gz, Affine ? nullptr : &S.Hz, S.E);
      kernels::axpy(Grad.data(), T, S.Gz.data(), N);
      if (!Affine)
        kernels::axpy(Hess.data(), T, S.Hz.data(), N * N);
    }

    // Barrier part: -sum log(-G_i).
    const Vector &Z = sliceW(W, S);
    const std::size_t Nz = Z.size();
    for (const LseFunction &C : Ctx.Constraints) {
      const bool Affine = C.affine();
      double Gv = C.valueGradHess(Z, S.Gz, Affine ? nullptr : &S.Hz, S.E);
      // Extend the gradient with the slack coordinate in phase one.
      const double *Gw = S.Gz.data();
      if (PhaseOne) {
        Gv -= W.back();
        S.Gw.resize(N);
        std::copy(S.Gz.begin(), S.Gz.end(), S.Gw.begin());
        S.Gw[N - 1] = -1.0;
        Gw = S.Gw.data();
      }
      assert(Gv < 0.0 && "barrier derivative requested outside the domain");
      double Inv = -1.0 / Gv; // 1 / (-G) > 0.
      double InvSq = Inv * Inv;
      kernels::axpy(Grad.data(), Inv, Gw, N);
      kernels::gramAccum(Hess.data(), Gw, InvSq, N);
      // Constraint curvature: (1/-G) * Hess(G); slack has no curvature.
      if (Affine)
        continue;
      if (Nz == N)
        kernels::axpy(Hess.data(), Inv, S.Hz.data(), N * N);
      else
        for (std::size_t I = 0; I < Nz; ++I)
          kernels::axpy(Hess.row(I), Inv, S.Hz.row(I), Nz);
    }
  }

private:
  /// The constraint-space point: W itself in phase two, W minus the
  /// trailing slack in phase one (copied into the S.Zs scratch).
  const Vector &sliceW(const Vector &W, SolverScratch &S) const {
    if (!PhaseOne)
      return W;
    S.Zs.assign(W.begin(), W.end() - 1);
    return S.Zs;
  }

  const BarrierContext &Ctx;
  bool PhaseOne;
};

/// How one centering step ended. Only Centered leaves W on the central
/// path, so only Centered may back the phase-I dual bound.
enum class CenterExit {
  Centered,    ///< The Newton decrement fell below its tolerance.
  Approximate, ///< A loose step's decrement fell below LooseDecrement.
  EarlyExit,   ///< The caller's EarlyExit predicate held.
  Stalled,     ///< The line search found no sufficient decrease.
  IterCap,     ///< MaxIters Newton steps ran out.
  Breakdown,   ///< Non-finite derivatives or no factorable Hessian.
};

/// The telemetry counter of each exit; every centering step counts once.
const char *centerExitCounter(CenterExit Exit) {
  switch (Exit) {
  case CenterExit::Centered:
    return "solver.center.centered";
  case CenterExit::Approximate:
    return "solver.center.approximate";
  case CenterExit::EarlyExit:
    return "solver.center.early_exit";
  case CenterExit::Stalled:
    return "solver.center.stalled";
  case CenterExit::IterCap:
    return "solver.center.iter_cap";
  case CenterExit::Breakdown:
    return "solver.center.breakdown";
  }
  return "solver.center.unknown";
}

/// Half squared Newton decrement below which a loose centering step
/// ends: lambda < 0.15 lies inside Newton's quadratic region, so the
/// next weight's centering starts close enough to converge fast.
constexpr double LooseDecrement = 1e-2;

/// Rungs of the Newton step's regularization ladder.
constexpr int RegularizationRungs = 12;

/// The diagonal shift of rung R = 4K + J, (1e-10 * 1e8^K) * 100^J,
/// multiplied in that order: a plain lambda *= 100 chain differs in the
/// last bit from rung 4 on, and the regularized steps use those rungs.
double rungLambda(int R) {
  double Lambda = 1e-10;
  for (int K = 0; K < R / 4; ++K)
    Lambda *= 1e8;
  for (int J = 0; J < R % 4; ++J)
    Lambda *= 100.0;
  return Lambda;
}

/// Damped-Newton minimization of the barrier objective at fixed T.
/// Returns which exit it took. \p EarlyExit, when non-null, stops as
/// soon as it returns true (used by phase one once s < 0). A \p Loose
/// step also ends, as Approximate, once lambda^2/2 < LooseDecrement.
///
/// Each step solves (H + lambda I) p = -g at the first rung of the
/// regularization ladder (lambda = 1e-10 * 100^r, r < 12) whose matrix
/// factors, trying the rungs one at a time: rung 0 factors most steps
/// (docs/PERF.md), and the rest count as solver.newton.regularized.
CenterExit centerNewton(const CenteringProblem &Prob, double T, Vector &W,
                        unsigned MaxIters, unsigned &IterCounter,
                        bool (*EarlyExit)(const Vector &), bool Loose,
                        SolverScratch &S) {
  for (unsigned Iter = 0; Iter < MaxIters; ++Iter) {
    if (EarlyExit && EarlyExit(W))
      return CenterExit::EarlyExit;
    Prob.barrierDerivatives(T, W, S.Grad, S.Hess, S);
    ++IterCounter;
    if (fault::shouldFail("solver.nan-grad"))
      S.Grad[0] = std::numeric_limits<double>::quiet_NaN();
    if (!allFinite(S.Grad))
      return CenterExit::Breakdown;

    const std::size_t N = W.size();
    S.NegGrad.resize(N);
    for (std::size_t I = 0; I < N; ++I)
      S.NegGrad[I] = -S.Grad[I];

    // Regularized Newton direction: the first rung that factors.
    S.Factor.resize(N * N);
    S.Transposed.resize(N * N);
    S.Step.resize(N);
    int Rung = 0;
    for (; Rung < RegularizationRungs; ++Rung) {
      std::copy(S.Hess.data(), S.Hess.data() + N * N, S.Factor.begin());
      const double Lambda = rungLambda(Rung);
      for (std::size_t I = 0; I < N; ++I)
        S.Factor[I * N + I] += Lambda;
      if (kernels::choleskySolveInPlace(S.Factor.data(), N, S.NegGrad.data(),
                                        S.Step.data(), S.Transposed.data()))
        break;
    }
    if (Rung == RegularizationRungs)
      return CenterExit::Breakdown;
    if (Rung > 0)
      telemetry::count("solver.newton.regularized");

    // Newton decrement as a stopping test, scaled by the barrier value
    // the line search starts from.
    double Decrement = -kernels::dot(S.Grad.data(), S.Step.data(), N);
    if (!std::isfinite(Decrement))
      return CenterExit::Breakdown;
    if (Decrement < 0.0)
      Decrement = 0.0;
    const double Base = Prob.barrierValue(T, W, S);
    if (Decrement * 0.5 < Prob.decrementTolerance(Base))
      return CenterExit::Centered;
    if (Loose && Decrement * 0.5 < LooseDecrement)
      return CenterExit::Approximate;

    // Backtracking line search with domain (feasibility) check.
    double Alpha = 1.0;
    bool Accepted = false;
    S.Trial.resize(N);
    for (int LsIter = 0; LsIter < 60; ++LsIter) {
      kernels::axpby(S.Trial.data(), W.data(), Alpha, S.Step.data(), N);
      double Val = Prob.barrierValue(T, S.Trial, S);
      if (Val <= Base - 1e-4 * Alpha * Decrement) {
        W.swap(S.Trial);
        Accepted = true;
        break;
      }
      Alpha *= 0.5;
    }
    if (!Accepted)
      return CenterExit::Stalled; // No further progress at this T.
  }
  return CenterExit::IterCap;
}

/// Moves the start of a phase-II centering at weight \p T from \p Z, the
/// point the previous centering returned, toward the secant prediction
/// Z + (Z - Prev) / Mu, with \p Prev the point of the centering before
/// it: near the optimum the central path approaches it as 1/t, so each
/// weight step's move shrinks by Mu. The prediction, or failing that its
/// half, is taken only where it lowers the barrier at \p T below its
/// value at \p Z; outside the domain the barrier is +inf, so a taken
/// start is strictly feasible. Returns whether one was taken.
bool predictCenter(const CenteringProblem &Prob, double T, double Mu,
                   const Vector &Prev, Vector &Z, SolverScratch &S) {
  const std::size_t N = Z.size();
  S.Step.resize(N);
  for (std::size_t I = 0; I < N; ++I)
    S.Step[I] = (Z[I] - Prev[I]) / Mu;
  const double Base = Prob.barrierValue(T, Z, S);
  S.Trial.resize(N);
  for (double Alpha : {1.0, 0.5}) {
    kernels::axpby(S.Trial.data(), Z.data(), Alpha, S.Step.data(), N);
    if (Prob.barrierValue(T, S.Trial, S) < Base) {
      Z.swap(S.Trial);
      return true;
    }
  }
  return false;
}

/// The uninstrumented solve (the body of the public solveGp); the
/// wrapper below records the per-solve outcome metrics in one place.
GpSolution solveGpImpl(const GpProblem &Problem,
                       const GpSolverOptions &Options) {
  GpSolution Solution;
  const VarTable &Vars = Problem.variables();
  const std::size_t N = Vars.size();
  assert(!Problem.objective().isZero() && "GP objective must be set");

  if (fault::shouldFail("solver.infeasible")) {
    Solution.Failure = "injected: no strictly feasible point (phase I)";
    Solution.Outcome = SolveOutcome::Infeasible;
    return Solution;
  }
  // Consumed once per solve: every phase-II convergence test of this
  // call is suppressed, so one armed hit fails exactly one solve.
  const bool ForceNonConverge = fault::shouldFail("solver.nonconverge");

  // ---- Eliminate monomial equalities: rows a . y = -ln c.
  const auto &Equalities = Problem.equalities();
  Matrix A(Equalities.size(), N);
  Vector B(Equalities.size(), 0.0);
  for (std::size_t E = 0; E < Equalities.size(); ++E) {
    const Monomial &G = Equalities[E].Lhs;
    for (const Monomial::Term &T : G.terms())
      A.at(E, T.Var) = T.Exp;
    B[E] = -std::log(G.coefficient());
  }
  Vector Y0;
  if (!solveParticular(A, B, Y0)) {
    Solution.Failure = "inconsistent monomial equality constraints";
    Solution.Outcome = SolveOutcome::Infeasible;
    return Solution;
  }
  Matrix Z = Equalities.empty() ? Matrix::identity(N) : nullSpaceOf(A);

  // ---- Compile objective and constraints into reduced log-sum-exp form.
  BarrierContext Ctx;
  Ctx.Objective = compileLse(Problem.objective(), Vars, Y0, Z);
  if (Options.ObjectiveScale > 0.0 && Options.ObjectiveScale != 1.0) {
    // Minimize f/scale instead of f: same argmin, offsets recentred
    // near zero so exp() stays in range for huge coefficient spreads.
    const double LogScale = std::log(Options.ObjectiveScale);
    for (std::size_t K = 0; K < Ctx.Objective.Offsets.size(); ++K)
      Ctx.Objective.Offsets[K] -= LogScale;
  }
  for (const GpProblem::Constraint &C : Problem.constraints())
    Ctx.Constraints.push_back(compileLse(C.Lhs, Vars, Y0, Z));

  const std::size_t Reduced = Z.cols();
  Vector ZVec(Reduced, 0.0);
  if (Options.StartPerturbation != 0.0)
    // Deterministic start offset (stays on the equality subspace): the
    // retry ladder's way out of a pathological phase-I trajectory.
    for (std::size_t I = 0; I < Reduced; ++I)
      ZVec[I] += Options.StartPerturbation *
                 std::sin(static_cast<double>(I + 1));

  auto recoverX = [&](const Vector &ZV) {
    Assignment X(N);
    Vector Y = axpy(Y0, 1.0, Z.apply(ZV));
    for (std::size_t I = 0; I < N; ++I)
      X[I] = std::exp(Y[I]);
    return X;
  };

  // ---- Phase I: find a strictly feasible point if needed.
  SolverScratch Scratch;
  CenteringProblem PhaseTwo(Ctx, /*PhaseOne=*/false);
  if (!Ctx.Constraints.empty() && !PhaseTwo.strictlyFeasible(ZVec, Scratch)) {
    telemetry::count("solver.phase1.runs");
    CenteringProblem PhaseOne(Ctx, /*PhaseOne=*/true);
    double MaxG = -std::numeric_limits<double>::infinity();
    for (const LseFunction &C : Ctx.Constraints)
      MaxG = std::max(MaxG, C.value(ZVec, Scratch.E));
    Vector W = ZVec;
    W.push_back(MaxG + 1.0); // Strictly feasible for G_i - s < 0.

    auto FoundInterior = [](const Vector &W) { return W.back() < -1e-7; };
    const double M = static_cast<double>(Ctx.Constraints.size());
    // The slack starts 1 above the largest constraint, so t = m makes the
    // first gap m/t match it (Boyd & Vandenberghe 11.3.1).
    double T = M * Options.TInitial;
    for (unsigned Outer = 0; Outer < Options.MaxOuterIters; ++Outer) {
      CenterExit Exit = centerNewton(PhaseOne, T, W, Options.MaxNewtonIters,
                                     Solution.NewtonIterations,
                                     +FoundInterior, /*Loose=*/false, Scratch);
      telemetry::count(centerExitCounter(Exit));
      if (Exit == CenterExit::Breakdown) {
        Solution.Failure = "numerical breakdown in phase I";
        Solution.Outcome = SolveOutcome::NumericalBreakdown;
        return Solution;
      }
      if (FoundInterior(W))
        break;
      // Infeasibility certificate (Boyd & Vandenberghe 11.4): at the
      // central point of t*s - sum log(s - G_i), lambda_i = 1/(t(s - G_i))
      // is dual feasible with gap m/t, so the phase-I optimum is at
      // least s - m/t. A positive bound proves that no z has every
      // G_i(z) < 0, so phase I could never succeed; stop instead of
      // exhausting its budget. Only a centered step supports the bound.
      const double Bound = W.back() - M / T;
      if (Exit == CenterExit::Centered && Bound > 0.0) {
        telemetry::count("solver.phase1.certified");
        char Text[128];
        std::snprintf(Text, sizeof Text,
                      "certified infeasible (phase I): s - m/t = %.6g > 0 "
                      "(m=%zu, t=%.6g)",
                      Bound, Ctx.Constraints.size(), T);
        Solution.Failure = Text;
        Solution.Outcome = SolveOutcome::Infeasible;
        return Solution;
      }
      T *= Options.TMultiplier;
    }
    if (!FoundInterior(W)) {
      Solution.Failure = "no strictly feasible point found (phase I)";
      Solution.Outcome = SolveOutcome::Infeasible;
      return Solution;
    }
    ZVec.assign(W.begin(), W.end() - 1);
    // The phase-I point satisfies G_i < s < 0, hence strictly feasible.
    assert(PhaseTwo.strictlyFeasible(ZVec, Scratch) &&
           "phase I postcondition");
  }
  Solution.Feasible = true;

  // ---- Phase II: follow the central path. As in phase I, the first
  // weight is m * TInitial. Only the last centering, the first whose gap
  // bound m/t is within tolerance, fixes the returned point and keeps
  // the tight stopping test; the ones before it stop loosely, and from
  // the third on each starts at the secant prediction of its center.
  const double NumConstraints =
      std::max<std::size_t>(Ctx.Constraints.size(), 1);
  double T = NumConstraints * Options.TInitial;
  unsigned OuterIters = 0;
  Vector Previous, Returned; // Centerings k-2 and k-1 at the start of k.
  for (unsigned Outer = 0; Outer < Options.MaxOuterIters; ++Outer) {
    ++OuterIters;
    const bool Last = NumConstraints / T < Options.Tolerance;
    Returned = ZVec;
    if (Outer >= 2) {
      const bool Taken = predictCenter(PhaseTwo, T, Options.TMultiplier,
                                       Previous, ZVec, Scratch);
      telemetry::count(Taken ? "solver.phase2.predictor.taken"
                             : "solver.phase2.predictor.rejected");
    }
    Previous.swap(Returned);
    CenterExit Exit =
        centerNewton(PhaseTwo, T, ZVec, Options.MaxNewtonIters,
                     Solution.NewtonIterations, nullptr, !Last, Scratch);
    telemetry::count(centerExitCounter(Exit));
    if (Exit == CenterExit::Breakdown) {
      Solution.Failure = "numerical breakdown in phase II";
      Solution.Outcome = SolveOutcome::NumericalBreakdown;
      Solution.Values = recoverX(ZVec);
      Solution.Objective = Problem.objective().evaluate(Solution.Values);
      return Solution;
    }
    if (Last && !ForceNonConverge) {
      Solution.Converged = true;
      break;
    }
    T *= Options.TMultiplier;
  }
  if (telemetry::metricsEnabled()) {
    // Barrier-stage telemetry: how many centering steps phase II took
    // and the duality-gap bound m/t it stopped at (the residual).
    telemetry::observe("solver.phase2.outer_iters",
                       static_cast<double>(OuterIters));
    telemetry::observe("solver.phase2.barrier_gap", NumConstraints / T);
  }

  Solution.Values = recoverX(ZVec);
  Solution.Objective = Problem.objective().evaluate(Solution.Values);
  if (!allFinite(Solution.Values) || !std::isfinite(Solution.Objective)) {
    // A non-finite iterate must never reach extraction/rounding; strip
    // the convergence claim so callers discard rather than consume it.
    Solution.Converged = false;
    Solution.Outcome = SolveOutcome::NonFinite;
    Solution.Failure = "non-finite iterate or objective";
  } else if (Solution.Converged) {
    Solution.Outcome = SolveOutcome::Converged;
  } else {
    Solution.Outcome = SolveOutcome::NotConverged;
    Solution.Failure = ForceNonConverge
                           ? "injected: barrier loop never converged"
                           : "barrier loop hit MaxOuterIters before "
                             "reaching tolerance";
  }
  return Solution;
}

} // namespace

GpSolution thistle::solveGp(const GpProblem &Problem,
                            const GpSolverOptions &Options) {
  GpSolution Solution = solveGpImpl(Problem, Options);
  if (telemetry::metricsEnabled()) {
    telemetry::count("solver.solves");
    telemetry::count("solver.newton_iters", Solution.NewtonIterations);
    telemetry::observe("solver.newton_per_solve",
                       static_cast<double>(Solution.NewtonIterations));
    telemetry::count((std::string("solver.outcome.") +
                      solveOutcomeName(Solution.Outcome))
                         .c_str());
  }
  return Solution;
}

const char *thistle::solveOutcomeName(SolveOutcome Outcome) {
  switch (Outcome) {
  case SolveOutcome::Converged:
    return "converged";
  case SolveOutcome::NotConverged:
    return "not-converged";
  case SolveOutcome::Infeasible:
    return "infeasible";
  case SolveOutcome::NumericalBreakdown:
    return "numerical-breakdown";
  case SolveOutcome::NonFinite:
    return "non-finite";
  }
  return "unknown";
}

namespace {

/// Usability rank of an attempt's outcome for the ladder's final pick.
/// Breakdown-with-a-feasible-iterate still carries a usable point (the
/// pre-breakdown central-path iterate), so it outranks infeasibility.
int outcomeRank(const GpSolution &S) {
  switch (S.Outcome) {
  case SolveOutcome::Converged:
    return 4;
  case SolveOutcome::NotConverged:
    return 3;
  case SolveOutcome::NumericalBreakdown:
    return S.Feasible ? 2 : 1;
  case SolveOutcome::Infeasible:
    return 1;
  case SolveOutcome::NonFinite:
    return 0;
  }
  return 0;
}

/// Largest objective coefficient, for the rescaling rung.
double objectiveScaleFor(const GpProblem &Problem) {
  double Max = 0.0;
  for (const Monomial &M : Problem.objective().monomials())
    Max = std::max(Max, M.coefficient());
  return std::isfinite(Max) && Max > 0.0 ? Max : 1.0;
}

} // namespace

GpSolution thistle::solveGpWithRetry(const GpProblem &Problem,
                                     const GpSolverOptions &Options,
                                     GpSolveReport *Report) {
  const unsigned MaxAttempts = std::max(1u, Options.MaxSolveAttempts);
  GpSolution Best;
  unsigned BestAttempt = 0;
  unsigned TotalNewton = 0;

  for (unsigned Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    GpSolverOptions Rung = Options;
    if (Attempt == 1) {
      // Perturbed start, gentler initial barrier weight.
      Rung.StartPerturbation = 1e-3;
      Rung.TInitial = Options.TInitial * 0.1;
    } else if (Attempt >= 2) {
      // Stronger perturbation, slow barrier growth, rescaled objective.
      Rung.StartPerturbation = 1e-2 * static_cast<double>(Attempt - 1);
      Rung.TInitial = Options.TInitial * 0.01;
      Rung.TMultiplier = std::max(4.0, Options.TMultiplier * 0.5);
      Rung.ObjectiveScale = objectiveScaleFor(Problem);
    }

    telemetry::TraceScope AttemptSpan("solver.attempt");
    GpSolution S = solveGp(Problem, Rung);
    if (telemetry::traceEnabled())
      AttemptSpan.setDetail(std::string(solveOutcomeName(S.Outcome)) +
                            " newton=" +
                            std::to_string(S.NewtonIterations));
    if (Attempt > 0)
      telemetry::count("solver.retry.attempts");
    TotalNewton += S.NewtonIterations;
    if (Report)
      Report->Attempts.push_back({S.Outcome, S.NewtonIterations});

    // Strictly-better outcomes displace the incumbent; ties keep the
    // earliest attempt so a clean first solve is bit-identical to
    // solveGp with the caller's options.
    if (Attempt == 0 || outcomeRank(S) > outcomeRank(Best)) {
      Best = std::move(S);
      BestAttempt = Attempt;
    }
    if (Best.Outcome == SolveOutcome::Converged)
      break;
    // Infeasibility is a property of the problem, not of the numerics:
    // retrying cannot cure it, so stop the ladder early.
    if (Best.Outcome == SolveOutcome::Infeasible &&
        Best.Failure.find("injected") == std::string::npos)
      break;
  }

  Best.NewtonIterations = TotalNewton;
  if (BestAttempt > 0 && Best.Outcome == SolveOutcome::Converged)
    telemetry::count("solver.retry.recovered");
  if (Report)
    Report->Recovered =
        BestAttempt > 0 && Best.Outcome == SolveOutcome::Converged;
  return Best;
}

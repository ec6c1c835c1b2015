//===- tests/SolverTest.cpp - solver/ unit tests --------------------------===//
//
// Validates the interior-point GP solver against problems with known
// closed-form optima.
//
//===----------------------------------------------------------------------===//

#include "solver/GpProblem.h"
#include "solver/GpSolver.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace thistle;

TEST(GpProblem, CanonicalForms) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 10.0, "x <= 10");
  Gp.addEquality(Monomial::variable(X, 2.0), 4.0, "x^2 == 4");
  ASSERT_EQ(Gp.constraints().size(), 1u);
  ASSERT_EQ(Gp.equalities().size(), 1u);
  // x <= 10 stored as x/10 <= 1.
  EXPECT_DOUBLE_EQ(
      Gp.constraints()[0].Lhs.monomials()[0].coefficient(), 0.1);
  // x^2 == 4 stored as x^2/4 == 1.
  EXPECT_DOUBLE_EQ(Gp.equalities()[0].Lhs.coefficient(), 0.25);
  EXPECT_NE(Gp.toString().find("minimize"), std::string::npos);
}

TEST(GpSolver, UnconstrainedMonomialWithLowerBounds) {
  // minimize x*y subject to x >= 1, y >= 1: optimum 1 at (1, 1).
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, 100.0);
  Gp.addVariableBounds(Y, 100.0);
  Gp.setObjective(
      Posynomial(Monomial::variable(X) * Monomial::variable(Y)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_TRUE(S.Converged);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-3);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-3);
  EXPECT_NEAR(S.Objective, 1.0, 1e-2);
}

TEST(GpSolver, ClassicVolumeProblem) {
  // minimize 1/(xyz) (maximize box volume) s.t. 2(xy + yz + xz) <= 6.
  // Optimum: cube with x = y = z = 1, objective 1.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  VarId Z = Gp.addVariable("z");
  Posynomial Surface;
  Surface += Signomial(
      (Monomial::variable(X) * Monomial::variable(Y)).scaled(2.0));
  Surface += Signomial(
      (Monomial::variable(Y) * Monomial::variable(Z)).scaled(2.0));
  Surface += Signomial(
      (Monomial::variable(X) * Monomial::variable(Z)).scaled(2.0));
  Gp.addUpperBound(Surface, 6.0, "surface");
  Gp.setObjective(Posynomial(Monomial::variable(X, -1.0) *
                             Monomial::variable(Y, -1.0) *
                             Monomial::variable(Z, -1.0)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-3);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-3);
  EXPECT_NEAR(S.Values[Z], 1.0, 1e-3);
  EXPECT_NEAR(S.Objective, 1.0, 1e-2);
}

TEST(GpSolver, AmGmEquality) {
  // minimize x + y subject to x*y == 16: optimum x = y = 4, objective 8
  // (AM-GM). Exercises the monomial-equality elimination.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addEquality(Monomial::variable(X) * Monomial::variable(Y), 16.0);
  Gp.setObjective(Posynomial(Monomial::variable(X)) +
                  Posynomial(Monomial::variable(Y)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 4.0, 1e-2);
  EXPECT_NEAR(S.Values[Y], 4.0, 1e-2);
  EXPECT_NEAR(S.Objective, 8.0, 1e-2);
  // The equality must hold exactly (it is eliminated, not penalized).
  EXPECT_NEAR(S.Values[X] * S.Values[Y], 16.0, 1e-6);
}

TEST(GpSolver, FractionalExponents) {
  // minimize x + 4/sqrt(x): optimum at d/dx = 1 - 2 x^-1.5 = 0,
  // x = 2^(2/3) ~ 1.5874, objective ~ 4.7622.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.setObjective(Posynomial(Monomial::variable(X)) +
                  Posynomial(Monomial::variable(X, -0.5, 4.0)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  double XStar = std::pow(2.0, 2.0 / 3.0);
  EXPECT_NEAR(S.Values[X], XStar, 1e-2);
  EXPECT_NEAR(S.Objective, XStar + 4.0 / std::sqrt(XStar), 1e-2);
}

TEST(GpSolver, PhaseOneFindsInterior) {
  // The zero log-point x = 1 violates x >= 2; phase I must recover.
  // minimize x s.t. 2 <= x <= 5: optimum 2.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addUpperBound(Posynomial(Monomial::variable(X, -1.0, 2.0)), 1.0,
                   "x >= 2");
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 5.0, "x <= 5");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 2.0, 1e-2);
}

TEST(GpSolver, DetectsInfeasibility) {
  // x <= 1 and x >= 3 cannot both hold.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 1.0, "x <= 1");
  Gp.addUpperBound(Posynomial(Monomial::variable(X, -1.0, 3.0)), 1.0,
                   "x >= 3");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  EXPECT_FALSE(S.Feasible);
  EXPECT_FALSE(S.Failure.empty());
}

TEST(GpSolver, DetectsInconsistentEqualities) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addEquality(Monomial::variable(X), 2.0);
  Gp.addEquality(Monomial::variable(X), 3.0);
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  EXPECT_FALSE(S.Feasible);
}

TEST(GpSolver, FullyPinnedByEqualities) {
  // All variables fixed: solver must just evaluate.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addEquality(Monomial::variable(X), 3.0);
  Gp.addEquality(Monomial::variable(Y), 5.0);
  Gp.setObjective(Posynomial(Monomial::variable(X) * Monomial::variable(Y)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Objective, 15.0, 1e-6);
}

TEST(GpSolver, TiledVolumeTradeoff) {
  // A miniature dataflow-like GP: minimize N^2/x + N^2/y (data volumes)
  // subject to x*y <= 64 (capacity), 1 <= x, y <= N, N = 32.
  // By symmetry the optimum is x = y = 8, objective 2*1024/8 = 256.
  const double N = 32.0;
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, N);
  Gp.addVariableBounds(Y, N);
  Gp.addUpperBound(Posynomial(Monomial::variable(X) * Monomial::variable(Y)),
                   64.0, "capacity");
  Gp.setObjective(Posynomial(Monomial::variable(X, -1.0, N * N)) +
                  Posynomial(Monomial::variable(Y, -1.0, N * N)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 8.0, 0.05);
  EXPECT_NEAR(S.Values[Y], 8.0, 0.05);
  EXPECT_NEAR(S.Objective, 256.0, 0.5);
}

TEST(GpSolver, ReportsNewtonWork) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addVariableBounds(X, 10.0);
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_GT(S.NewtonIterations, 0u);
}

// ---- The one-term (affine) path of a compiled function ---------------------

#include "solver/LogSumExp.h"

#include <cstdint>
#include <cstring>

namespace {

std::uint64_t bitsOf(double X) {
  std::uint64_t B;
  std::memcpy(&B, &X, sizeof B);
  return B;
}

} // namespace

TEST(LseFunction, OneTermPathKeepsTheLogSumExpBits) {
  // A monomial is affine in log space, so it skips the exp, the log and
  // the Hessian. With one term the log-sum-exp code computes exp(0) = 1,
  // log 1 = 0 and a curvature a a^T - a a^T of +0.0, so both paths must
  // agree in every bit, here over a dense null space and assorted points.
  GpProblem Gp;
  const VarId X = Gp.addVariable("x");
  const VarId Y = Gp.addVariable("y");
  const VarId W = Gp.addVariable("w");
  const VarId V = Gp.addVariable("v");
  const std::size_t Reduced = 3;
  Matrix Z(4, Reduced);
  for (std::size_t I = 0; I < 4; ++I)
    for (std::size_t J = 0; J < Reduced; ++J)
      Z.at(I, J) = std::sin(1.0 + 3.0 * I + J) * (J == 1 ? 0.0 : 1.7);
  const Vector Y0 = {0.3, -1.25, 2.0, 0.0};
  const Monomial Monomials[] = {
      Monomial::variable(X, -1.0),
      Monomial::variable(Y, 1.0, 1.0 / 56.0),
      Monomial::variable(X, 2.0, 3.7e5) * Monomial::variable(W, -0.5),
      Monomial::variable(Y, 1.0, 1e-9) * Monomial::variable(W) *
          Monomial::variable(V, 3.0),
  };
  const Vector Points[] = {
      {0.0, 0.0, 0.0}, {1.5, -2.25, 0.125}, {-7.0, 3.0, 11.5}};
  for (const Monomial &M : Monomials) {
    const LseFunction F = compileLse(Posynomial(M), Gp.variables(), Y0, Z);
    ASSERT_TRUE(F.affine());
    for (const Vector &P : Points) {
      Vector E, GradA, GradL;
      Matrix HessA, HessL;
      EXPECT_EQ(bitsOf(F.value(P, E)), bitsOf(F.lseValue(P, E)));
      const double VA = F.valueGradHess(P, GradA, &HessA, E);
      const double VL = F.lseValueGradHess(P, GradL, &HessL, E);
      EXPECT_EQ(bitsOf(VA), bitsOf(VL));
      ASSERT_EQ(GradA.size(), Reduced);
      ASSERT_EQ(GradL.size(), Reduced);
      for (std::size_t I = 0; I < Reduced; ++I)
        EXPECT_EQ(bitsOf(GradA[I]), bitsOf(GradL[I])) << "gradient " << I;
      for (std::size_t I = 0; I < Reduced; ++I)
        for (std::size_t J = 0; J < Reduced; ++J) {
          EXPECT_EQ(bitsOf(HessA.at(I, J)), bitsOf(HessL.at(I, J)))
              << "Hessian " << I << "," << J;
          EXPECT_EQ(bitsOf(HessL.at(I, J)), bitsOf(0.0));
        }
    }
  }
  // Two terms still take the log-sum-exp path.
  EXPECT_FALSE(compileLse(Posynomial(Monomials[0]) + Posynomial(Monomials[1]),
                          Gp.variables(), Y0, Z)
                   .affine());
}

// ---- Centering on generated network programs -------------------------------

#include "support/Telemetry.h"
#include "thistle/Network.h"
#include "workloads/Workloads.h"

namespace {

/// Runs \p Layers through optimizeNetwork at metrics level and returns
/// the telemetry it collected.
telemetry::Snapshot sweepSnapshot(const std::vector<ConvLayer> &Layers,
                                  DesignMode Mode) {
  telemetry::setLevel(telemetry::Level::Metrics);
  telemetry::reset();
  NetworkOptions Options;
  Options.Layer.Mode = Mode;
  const TechParams Tech = TechParams::cgo45nm();
  const NetworkResult R =
      optimizeNetwork(Layers, eyerissArch(), Tech, Options,
                      Mode == DesignMode::CoDesign ? eyerissAreaUm2(Tech)
                                                   : 0.0);
  telemetry::Snapshot Snap = telemetry::snapshot();
  telemetry::setLevel(telemetry::Level::Off);
  EXPECT_TRUE(R.Found);
  return Snap;
}

std::uint64_t counterOf(const telemetry::Snapshot &Snap, const char *Name) {
  for (const telemetry::CounterValue &C : Snap.Counters)
    if (C.Name == Name)
      return C.Value;
  return 0;
}

} // namespace

TEST(GpSolver, NoCenteringRunsOutOfNewtonSteps) {
  // Every centering of a network sweep ends on its own test. A fixed
  // 1e-10 decrement bound lies below the rounding of the barrier value
  // at the last weights, where centerings used to run all their steps.
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "telemetry compiled out";
  const telemetry::Snapshot Snap =
      sweepSnapshot(dcganNetworkLayers(), DesignMode::DataflowOnly);
  EXPECT_GT(counterOf(Snap, "solver.center.centered"), 0u);
  EXPECT_EQ(counterOf(Snap, "solver.center.iter_cap"), 0u);
  const telemetry::StatValue *PerSolve = nullptr;
  for (const telemetry::StatValue &S : Snap.Stats)
    if (S.Name == "solver.newton_per_solve")
      PerSolve = &S;
  ASSERT_NE(PerSolve, nullptr);
  EXPECT_LT(PerSolve->Max, GpSolverOptions().MaxNewtonIters);
  // Phase II centers tightly only at its last weight and predicts where
  // each centering starts: about 44 steps per solve, where centering
  // every weight tightly, each from where the last one ended, took 63.
  EXPECT_LT(PerSolve->mean(), 50.0);
  // The ladder's higher rungs run, but for few steps: the ladder tries
  // its rungs one at a time because rung 0 factors nearly every Hessian.
  const std::uint64_t Regularized =
      counterOf(Snap, "solver.newton.regularized");
  EXPECT_GT(Regularized, 0u);
  EXPECT_LT(static_cast<double>(Regularized),
            0.02 * static_cast<double>(counterOf(Snap, "solver.newton_iters")));
}

TEST(GpSolver, CoDesignInfeasibleVerdictsAreCertified) {
  // Co-design sweeps pair architectures with shapes they cannot hold;
  // phase I must prove every such GP infeasible by its dual bound.
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "telemetry compiled out";
  const telemetry::Snapshot Snap =
      sweepSnapshot(dcganNetworkLayers(), DesignMode::CoDesign);
  const std::uint64_t Infeasible =
      counterOf(Snap, "solver.outcome.infeasible");
  EXPECT_GT(Infeasible, 0u);
  EXPECT_EQ(counterOf(Snap, "solver.phase1.certified"), Infeasible);
  EXPECT_EQ(counterOf(Snap, "solver.center.iter_cap"), 0u);
}

TEST(GpSolver, FlatDirectionsEndAtTheAnalyticCenter) {
  // minimize x s.t. 1 <= x <= 10, 1 <= y <= 4, 1 <= w <= 4, y*w <= 4.
  // The objective ignores y and w, so the barrier alone places them, at
  // the analytic center of their constraints at every weight: in log
  // space u = log y / log 4 solves 5u^2 - 5u + 1 = 0, u = (5 - sqrt 5)/10.
  // Rounding reads such flat coordinates, and only the last centering
  // pins them, so the loose centerings before it must not show here.
  GpProblem Gp;
  const VarId X = Gp.addVariable("x");
  const VarId Y = Gp.addVariable("y");
  const VarId W = Gp.addVariable("w");
  Gp.addVariableBounds(X, 10.0);
  Gp.addVariableBounds(Y, 4.0);
  Gp.addVariableBounds(W, 4.0);
  Gp.addUpperBound(Posynomial(Monomial::variable(Y) * Monomial::variable(W)),
                   4.0, "y*w <= 4");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  const GpSolution S = solveGp(Gp);
  ASSERT_EQ(S.Outcome, SolveOutcome::Converged) << S.Failure;
  const double Center = std::pow(4.0, (5.0 - std::sqrt(5.0)) / 10.0);
  EXPECT_NEAR(S.Values[Y] / Center, 1.0, 1e-9);
  EXPECT_NEAR(S.Values[W] / Center, 1.0, 1e-9);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-6);
}

// ---- Outcome classification and the retry ladder --------------------------

#include "support/FaultInjection.h"

namespace {

/// minimize x*y s.t. x >= 1, y >= 1 with coefficient spread \p Scale:
/// objective Scale * x * y. Optimum Scale at (1, 1).
GpProblem scaledCornerGp(VarId &X, VarId &Y, double Scale) {
  GpProblem Gp;
  X = Gp.addVariable("x");
  Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, 100.0);
  Gp.addVariableBounds(Y, 100.0);
  Gp.setObjective(Posynomial(
      (Monomial::variable(X) * Monomial::variable(Y)).scaled(Scale)));
  return Gp;
}

} // namespace

TEST(GpSolver, OutcomeIsConvergedOnSuccess) {
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  GpSolution S = solveGp(Gp);
  EXPECT_EQ(S.Outcome, SolveOutcome::Converged);
  EXPECT_STREQ(solveOutcomeName(S.Outcome), "converged");
}

TEST(GpSolver, OutcomeIsInfeasibleOnEmptyInterior) {
  // x <= 0.5 and x >= 1 cannot both hold.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addVariableBounds(X, 100.0);
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 0.5, "x small");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  EXPECT_FALSE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::Infeasible);
  // Proved by the phase-I dual bound, not by running out of iterations.
  EXPECT_NE(S.Failure.find("certified infeasible"), std::string::npos)
      << S.Failure;
  EXPECT_LT(S.NewtonIterations, 100u);
}

TEST(GpSolver, TinyAndHugeCoefficientSpreads) {
  // The raw solver must survive pathological objective scalings; the
  // retry ladder's rescaling rung normalizes the rest.
  for (double Scale : {1e-18, 1e-9, 1.0, 1e9, 1e18}) {
    VarId X, Y;
    GpProblem Gp = scaledCornerGp(X, Y, Scale);
    GpSolveReport Report;
    GpSolution S = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
    ASSERT_TRUE(S.Feasible) << "scale " << Scale << ": " << S.Failure;
    EXPECT_NEAR(S.Values[X], 1.0, 1e-2) << "scale " << Scale;
    EXPECT_NEAR(S.Values[Y], 1.0, 1e-2) << "scale " << Scale;
    // The reported objective is on the original posynomial.
    EXPECT_NEAR(S.Objective / Scale, 1.0, 1e-2) << "scale " << Scale;
  }
}

TEST(GpSolver, ObjectiveScaleIsArgminPreserving) {
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1e12);
  GpSolverOptions Options;
  Options.ObjectiveScale = 1e12;
  GpSolution S = solveGp(Gp, Options);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-3);
  EXPECT_NEAR(S.Objective, 1e12, 1e10);
}

TEST(GpSolver, StartPerturbationStaysCorrect) {
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  GpSolverOptions Options;
  Options.StartPerturbation = 1e-2;
  GpSolution S = solveGp(Gp, Options);
  ASSERT_TRUE(S.Feasible);
  EXPECT_TRUE(S.Converged);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-3);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-3);
}

TEST(GpSolver, RetryMatchesPlainSolveWhenFirstAttemptSucceeds) {
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 3.0);
  GpSolution Plain = solveGp(Gp);
  GpSolveReport Report;
  GpSolution Retry = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
  ASSERT_TRUE(Plain.Feasible);
  // Bit-identical: the ladder's first rung is exactly the caller's
  // options, and a converged first attempt short-circuits.
  EXPECT_EQ(Report.attempts(), 1u);
  EXPECT_FALSE(Report.Recovered);
  EXPECT_EQ(Retry.Objective, Plain.Objective);
  EXPECT_EQ(Retry.Values[X], Plain.Values[X]);
  EXPECT_EQ(Retry.Values[Y], Plain.Values[Y]);
  EXPECT_EQ(Retry.NewtonIterations, Plain.NewtonIterations);
}

TEST(GpSolver, RetryStopsOnGenuineInfeasibility) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addVariableBounds(X, 100.0);
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 0.5, "x small");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolveReport Report;
  GpSolution S = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
  EXPECT_FALSE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::Infeasible);
  // Infeasibility is a model property, not numerics: no retries burned.
  EXPECT_EQ(Report.attempts(), 1u);
  EXPECT_NE(S.Failure.find("certified infeasible"), std::string::npos)
      << S.Failure;
  EXPECT_LT(S.NewtonIterations, 100u);
}

#if THISTLE_FAULT_INJECTION_ENABLED

namespace {

struct SolverFaultGuard {
  ~SolverFaultGuard() { fault::disarmAll(); }
};

} // namespace

TEST(GpSolver, InjectedNonConvergenceIsClassified) {
  SolverFaultGuard G;
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  fault::arm("solver.nonconverge", fault::AnyKey, /*MaxHits=*/1);
  GpSolution S = solveGp(Gp);
  EXPECT_TRUE(S.Feasible);
  EXPECT_FALSE(S.Converged);
  EXPECT_EQ(S.Outcome, SolveOutcome::NotConverged);
}

TEST(GpSolver, RetryLadderRecoversFromNonConvergence) {
  SolverFaultGuard G;
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  // Poison exactly the first attempt; the second must converge.
  fault::arm("solver.nonconverge", fault::AnyKey, /*MaxHits=*/1);
  GpSolveReport Report;
  GpSolution S = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
  ASSERT_TRUE(S.Feasible) << S.Failure;
  EXPECT_TRUE(S.Converged);
  EXPECT_TRUE(Report.Recovered);
  EXPECT_EQ(Report.attempts(), 2u);
  EXPECT_EQ(Report.Attempts[0].Outcome, SolveOutcome::NotConverged);
  EXPECT_EQ(Report.Attempts[1].Outcome, SolveOutcome::Converged);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-2);
  // Total Newton work across both attempts is accounted.
  EXPECT_EQ(S.NewtonIterations, Report.Attempts[0].NewtonIterations +
                                    Report.Attempts[1].NewtonIterations);
}

TEST(GpSolver, RetryLadderRecoversFromNanGradient) {
  SolverFaultGuard G;
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  fault::arm("solver.nan-grad", fault::AnyKey, /*MaxHits=*/1);
  GpSolveReport Report;
  GpSolution S = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
  ASSERT_TRUE(S.Feasible) << S.Failure;
  EXPECT_TRUE(S.Converged);
  EXPECT_TRUE(Report.Recovered);
  EXPECT_GE(Report.attempts(), 2u);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-2);
}

TEST(GpSolver, LadderExhaustsOnPersistentFault) {
  SolverFaultGuard G;
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  fault::arm("solver.nonconverge"); // Unlimited: every attempt fails.
  GpSolverOptions Options;
  GpSolveReport Report;
  GpSolution S = solveGpWithRetry(Gp, Options, &Report);
  EXPECT_EQ(Report.attempts(), Options.MaxSolveAttempts);
  EXPECT_FALSE(Report.Recovered);
  // Best effort: the iterate is still feasible, just not converged.
  EXPECT_TRUE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::NotConverged);
}

#endif // THISTLE_FAULT_INJECTION_ENABLED

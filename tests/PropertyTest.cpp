//===- tests/PropertyTest.cpp - Randomized property tests -----------------===//
//
// Cross-cutting randomized invariants: algebraic laws of the expression
// module, global optimality of the GP solver against grid search,
// model/oracle agreement on irregular problems (batch > 1, rectangular
// images, mixed strides), and evaluator consistency.
//
//===----------------------------------------------------------------------===//

#include "expr/FactoredExpr.h"
#include "ir/Builders.h"
#include "nestmodel/Evaluator.h"
#include "nestmodel/NestAnalysis.h"
#include "sim/TiledLoopSim.h"
#include "solver/GpSolver.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

using namespace thistle;

namespace {

/// Random signomial over \p Vars with \p Terms monomials.
Signomial randomSignomial(Rng &R, unsigned NumVars, unsigned Terms,
                          bool AllowNegative) {
  Signomial S;
  for (unsigned T = 0; T < Terms; ++T) {
    double Coeff = 0.25 + 2.0 * R.nextDouble();
    if (AllowNegative && R.nextDouble() < 0.3)
      Coeff = -Coeff;
    Monomial M(Coeff);
    for (unsigned V = 0; V < NumVars; ++V)
      if (R.nextDouble() < 0.5)
        M = M * Monomial::variable(V, static_cast<double>(R.nextIndex(3)) -
                                          1.0);
    S += Signomial(M);
  }
  return S;
}

Assignment randomAssignment(Rng &R, unsigned NumVars) {
  Assignment A(NumVars);
  for (double &V : A)
    V = 0.5 + 3.0 * R.nextDouble();
  return A;
}

} // namespace

TEST(ExprProperties, RingLawsHoldNumerically) {
  Rng R(101);
  const unsigned NumVars = 4;
  for (int Trial = 0; Trial < 50; ++Trial) {
    Signomial A = randomSignomial(R, NumVars, 3, true);
    Signomial B = randomSignomial(R, NumVars, 3, true);
    Signomial C = randomSignomial(R, NumVars, 2, true);
    Assignment X = randomAssignment(R, NumVars);
    double Av = A.evaluate(X), Bv = B.evaluate(X), Cv = C.evaluate(X);
    // Commutativity and distributivity.
    EXPECT_NEAR((A + B).evaluate(X), Av + Bv, 1e-9 * (1 + std::abs(Av + Bv)));
    EXPECT_NEAR((A * B).evaluate(X), Av * Bv, 1e-9 * (1 + std::abs(Av * Bv)));
    double Lhs = (A * (B + C)).evaluate(X);
    double Rhs = Av * (Bv + Cv);
    EXPECT_NEAR(Lhs, Rhs, 1e-8 * (1 + std::abs(Rhs)));
  }
}

TEST(ExprProperties, SubstitutionIsEvaluationHomomorphism) {
  // Substituting v := m and then evaluating equals evaluating with the
  // variable bound to m's value.
  Rng R(103);
  const unsigned NumVars = 4;
  for (int Trial = 0; Trial < 50; ++Trial) {
    Signomial S = randomSignomial(R, NumVars, 4, true);
    VarId V = static_cast<VarId>(R.nextIndex(NumVars));
    Monomial Repl =
        Monomial::variable((V + 1) % NumVars, 1.0, 0.5 + R.nextDouble());
    Assignment X = randomAssignment(R, NumVars);
    Assignment XPrime = X;
    XPrime[V] = Repl.evaluate(X);
    EXPECT_NEAR(S.substituted(V, Repl).evaluate(X), S.evaluate(XPrime),
                1e-8 * (1 + std::abs(S.evaluate(XPrime))));
  }
}

TEST(ExprProperties, UpperBoundsDominateOnPositiveOrthant) {
  // Both halo bounds dominate the exact signomial wherever all
  // variables are >= 1 (the GP domain).
  Rng R(105);
  for (int Trial = 0; Trial < 60; ++Trial) {
    // Halo-shaped factor: positive variable terms minus a constant that
    // keeps the factor positive at the all-ones corner.
    FactoredExpr E;
    unsigned NumVars = 3;
    Signomial F;
    double CoeffSum = 0.0;
    for (unsigned V = 0; V < NumVars; ++V) {
      double C = 1.0 + R.nextIndex(3);
      F += Signomial(Monomial::variable(V, 1.0, C));
      CoeffSum += C;
    }
    F += Signomial::constant(-(CoeffSum - 1.0));
    E.pushFactor(F);

    Assignment X(NumVars);
    for (double &V : X)
      V = 1.0 + 4.0 * R.nextDouble();
    double Exact = E.evaluate(X);
    EXPECT_GE(E.posynomialUpperBound().evaluate(X), Exact - 1e-9);
    EXPECT_GE(E.monomialProductUpperBound().evaluate(X), Exact - 1e-9);
  }
}

TEST(SolverProperties, MatchesGridSearchOnRandom2DPrograms) {
  // Random 2-variable GPs: the interior-point optimum must not be beaten
  // by a fine log-space grid over the box [1, 32]^2.
  Rng R(107);
  for (int Trial = 0; Trial < 15; ++Trial) {
    GpProblem Gp;
    VarId X = Gp.addVariable("x");
    VarId Y = Gp.addVariable("y");
    Gp.addVariableBounds(X, 32.0);
    Gp.addVariableBounds(Y, 32.0);
    // Random posynomial objective with mixed-sign exponents.
    Posynomial Obj;
    for (int T = 0; T < 3; ++T) {
      double Ex = static_cast<double>(R.nextIndex(5)) - 2.0;
      double Ey = static_cast<double>(R.nextIndex(5)) - 2.0;
      Obj += Posynomial(Monomial::variable(X, Ex, 0.5 + R.nextDouble()) *
                        Monomial::variable(Y, Ey));
    }
    // A random coupling constraint x^a y^b <= c with c keeping (1,1)
    // feasible.
    double Ax = 1.0 + R.nextIndex(2), Ay = 1.0 + R.nextIndex(2);
    double Cap = 4.0 + 60.0 * R.nextDouble();
    Gp.addUpperBound(
        Posynomial(Monomial::variable(X, Ax) * Monomial::variable(Y, Ay)),
        Cap, "cap");
    Gp.setObjective(Obj);

    GpSolution S = solveGp(Gp);
    ASSERT_TRUE(S.Feasible) << "trial " << Trial;

    double GridBest = std::numeric_limits<double>::infinity();
    for (int I = 0; I <= 60; ++I)
      for (int J = 0; J <= 60; ++J) {
        Assignment A = {std::pow(32.0, I / 60.0),
                        std::pow(32.0, J / 60.0)};
        if (std::pow(A[0], Ax) * std::pow(A[1], Ay) > Cap)
          continue;
        GridBest = std::min(GridBest, Obj.evaluate(A));
      }
    EXPECT_LE(S.Objective, GridBest * (1.0 + 1e-3)) << "trial " << Trial;
  }
}

namespace {

/// A random posynomial over variables 0..NumVars-1: 1-3 monomials with
/// coefficients in [e^-3, e^3] and exponents in -2..2.
Posynomial randomPosynomial(Rng &R, unsigned NumVars) {
  Posynomial P;
  const std::size_t Terms = 1 + R.nextIndex(3);
  for (std::size_t T = 0; T < Terms; ++T) {
    Monomial M(std::exp(6.0 * R.nextDouble() - 3.0));
    for (unsigned V = 0; V < NumVars; ++V)
      M = M * Monomial::variable(V, static_cast<double>(R.nextIndex(5)) -
                                        2.0);
    P += Posynomial(M);
  }
  return P;
}

} // namespace

TEST(SolverProperties, InfeasibilityCertificateAgreesWithGridSearch) {
  // Random GPs in 2-3 variables on the box 1 <= x <= 100 with 1-4
  // posynomial constraints. In u = log x every log-constraint (bounds
  // included) has a gradient of 1-norm at most 2n, so their maximum F
  // moves by at most n*h between a point of the box and its nearest
  // node of a grid of step h, and F > 0 outside the box. Hence, with
  // Delta = n*h, a grid minimum of F above Delta proves that no point
  // has F <= 0, and a node with F < -Delta is a strictly feasible
  // witness with the same margin. The solver must find the second kind
  // feasible without ever certifying, and certify the first kind.
  Rng R(211);
  const double LogBox = std::log(100.0);
  unsigned Feasible = 0, Infeasible = 0, CertifiedNewton = 0;
  for (int Trial = 0; Trial < 900; ++Trial) {
    const unsigned NumVars = Trial % 6 == 5 ? 3 : 2;
    const int Nodes = NumVars == 2 ? 81 : 33;
    const double Step = LogBox / (Nodes - 1);
    const double Delta = NumVars * Step + 1e-9;

    GpProblem Gp;
    for (unsigned V = 0; V < NumVars; ++V)
      Gp.addVariableBounds(Gp.addVariable("x" + std::to_string(V)), 100.0);
    // F(u) = max_i log f_i(e^u) over the grid, with each random
    // constraint's monomials as rows (log c, a_1..a_n).
    std::vector<std::vector<std::vector<double>>> Rows;
    const std::size_t NumConstraints = 1 + R.nextIndex(4);
    for (std::size_t C = 0; C < NumConstraints; ++C) {
      Posynomial Lhs = randomPosynomial(R, NumVars);
      Gp.addUpperBound(Lhs, 1.0);
      Rows.emplace_back();
      for (const Monomial &M : Lhs.monomials()) {
        std::vector<double> Row(NumVars + 1, 0.0);
        Row[0] = std::log(M.coefficient());
        for (const Monomial::Term &T : M.terms())
          Row[1 + T.Var] = T.Exp;
        Rows.back().push_back(Row);
      }
    }
    Gp.setObjective(randomPosynomial(R, NumVars));

    double GridMin = std::numeric_limits<double>::infinity();
    std::vector<int> Node(NumVars, 0);
    std::vector<double> U(NumVars);
    for (;;) {
      double F = -std::numeric_limits<double>::infinity();
      for (unsigned V = 0; V < NumVars; ++V) {
        U[V] = Node[V] * Step;
        F = std::max({F, -U[V], U[V] - LogBox});
      }
      for (const auto &Constraint : Rows) {
        double Sum = 0.0;
        for (const std::vector<double> &Row : Constraint) {
          double Exponent = Row[0];
          for (unsigned V = 0; V < NumVars; ++V)
            Exponent += Row[1 + V] * U[V];
          Sum += std::exp(Exponent);
        }
        F = std::max(F, std::log(Sum));
      }
      GridMin = std::min(GridMin, F);
      unsigned V = 0;
      while (V < NumVars && ++Node[V] == Nodes)
        Node[V++] = 0;
      if (V == NumVars)
        break;
    }

    GpSolution S = solveGp(Gp);
    const bool Certified =
        S.Failure.find("certified infeasible") != std::string::npos;
    if (GridMin < -Delta) {
      ++Feasible;
      EXPECT_TRUE(S.Feasible) << "trial " << Trial << ": " << S.Failure;
      EXPECT_FALSE(Certified) << "trial " << Trial;
    } else if (GridMin > Delta) {
      ++Infeasible;
      EXPECT_EQ(S.Outcome, SolveOutcome::Infeasible) << "trial " << Trial;
      EXPECT_TRUE(Certified) << "trial " << Trial << ": " << S.Failure;
      CertifiedNewton += S.NewtonIterations;
    }
  }
  // Both verdicts must be well represented for the property to bite.
  EXPECT_GE(Feasible, 150u);
  EXPECT_GE(Infeasible, 150u);
  EXPECT_LT(CertifiedNewton, 100u * Infeasible);
}

TEST(SolverProperties, TighterToleranceNeverWorsens) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, 100.0);
  Gp.addVariableBounds(Y, 100.0);
  Gp.addUpperBound(
      Posynomial(Monomial::variable(X) * Monomial::variable(Y)), 50.0);
  Gp.setObjective(Posynomial(Monomial::variable(X, -1.0, 40.0)) +
                  Posynomial(Monomial::variable(Y, -1.0, 90.0)) +
                  Posynomial(Monomial::variable(X) * Monomial::variable(Y)));
  GpSolverOptions Loose, Tight;
  Loose.Tolerance = 1e-3;
  Tight.Tolerance = 1e-9;
  GpSolution A = solveGp(Gp, Loose);
  GpSolution B = solveGp(Gp, Tight);
  ASSERT_TRUE(A.Feasible);
  ASSERT_TRUE(B.Feasible);
  EXPECT_LE(B.Objective, A.Objective * (1.0 + 1e-6));
}

TEST(ModelProperties, BatchedConvMatchesOracle) {
  ConvLayer L;
  L.N = 3; // Batch > 1 exercises the n iterator everywhere.
  L.K = 2;
  L.C = 2;
  L.Hin = 5;
  L.Win = 4;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  Rng R(109);
  for (int Trial = 0; Trial < 25; ++Trial) {
    Mapping M;
    M.Factors.resize(P.numIterators());
    for (unsigned I = 0; I < P.numIterators(); ++I) {
      std::int64_t Extent = P.iterators()[I].Extent;
      std::int64_t RegF = R.pick(divisorsOf(Extent));
      std::int64_t Rest = Extent / RegF;
      std::int64_t SpatF = R.pick(divisorsOf(Rest));
      Rest /= SpatF;
      std::int64_t PeF = R.pick(divisorsOf(Rest));
      M.factor(I, TileLevel::Register) = RegF;
      M.factor(I, TileLevel::Spatial) = SpatF;
      M.factor(I, TileLevel::PeTemporal) = PeF;
      M.factor(I, TileLevel::DramTemporal) = Rest / PeF;
    }
    M.DramPerm.resize(P.numIterators());
    for (unsigned I = 0; I < P.numIterators(); ++I)
      M.DramPerm[I] = I;
    M.PePerm = M.DramPerm;
    R.shuffle(M.DramPerm);
    R.shuffle(M.PePerm);
    ASSERT_TRUE(M.validate(P).empty());

    NestProfile Model = analyzeNest(P, M);
    SimResult Oracle = simulateTiledNest(P, M);
    for (std::size_t T = 0; T < P.tensors().size(); ++T) {
      SCOPED_TRACE("batched trial " + std::to_string(Trial));
      EXPECT_EQ(Model.PerTensor[T].DramToSram,
                Oracle.PerTensor[T].DramToSram);
      EXPECT_EQ(Model.PerTensor[T].SramToReg,
                Oracle.PerTensor[T].SramToReg);
    }
  }
}

TEST(ModelProperties, MixedStrideRectangularConvMatchesOracle) {
  ConvLayer L;
  L.K = 2;
  L.C = 3;
  L.Hin = 9;
  L.Win = 16;
  L.R = 3;
  L.S = 1;
  L.StrideX = 1;
  L.StrideY = 2; // Asymmetric strides and kernel.
  Problem P = makeConvProblem(L);
  Rng R(111);
  for (int Trial = 0; Trial < 25; ++Trial) {
    Mapping M;
    M.Factors.resize(P.numIterators());
    for (unsigned I = 0; I < P.numIterators(); ++I) {
      std::int64_t Extent = P.iterators()[I].Extent;
      std::int64_t RegF = R.pick(divisorsOf(Extent));
      std::int64_t Rest = Extent / RegF;
      std::int64_t PeF = R.pick(divisorsOf(Rest));
      M.factor(I, TileLevel::Register) = RegF;
      M.factor(I, TileLevel::Spatial) = 1;
      M.factor(I, TileLevel::PeTemporal) = PeF;
      M.factor(I, TileLevel::DramTemporal) = Rest / PeF;
    }
    M.DramPerm.resize(P.numIterators());
    for (unsigned I = 0; I < P.numIterators(); ++I)
      M.DramPerm[I] = I;
    M.PePerm = M.DramPerm;
    R.shuffle(M.DramPerm);
    R.shuffle(M.PePerm);
    NestProfile Model = analyzeNest(P, M);
    SimResult Oracle = simulateTiledNest(P, M);
    for (std::size_t T = 0; T < P.tensors().size(); ++T) {
      SCOPED_TRACE("mixed trial " + std::to_string(Trial));
      EXPECT_EQ(Model.PerTensor[T].DramToSram,
                Oracle.PerTensor[T].DramToSram);
      EXPECT_EQ(Model.PerTensor[T].SramToReg,
                Oracle.PerTensor[T].SramToReg);
    }
  }
}

TEST(ModelProperties, EvaluatorMonotoneInArchitectureGenerosity) {
  // Growing every capacity can only keep a legal mapping legal, and the
  // energy changes only through the per-access laws.
  Problem P = makeMatmulProblem(16, 16, 16);
  Mapping M = Mapping::untiled(P);
  EnergyModel E(TechParams::cgo45nm());
  ArchConfig Small;
  Small.NumPEs = 4;
  Small.RegWordsPerPE = 1024;
  Small.SramWords = 2048;
  ArchConfig Big = Small;
  Big.NumPEs = 64;
  Big.RegWordsPerPE = 4096;
  Big.SramWords = 65536;
  EvalResult RS = evaluateMapping(P, M, Small, E);
  EvalResult RB = evaluateMapping(P, M, Big, E);
  EXPECT_TRUE(!RS.Legal || RB.Legal);
  // Bigger register files make each access more expensive (Eq. 4).
  EXPECT_GT(RB.EnergyPj, RS.EnergyPj);
}

//===- tests/GpBuilderTest.cpp - GP generation tests ----------------------===//
//
// Structural checks on the generated geometric programs: Eq. 3's shape in
// dataflow mode, Eq. 5's extra variables/constraints in co-design mode,
// the delay epigraph, the EDP objective, halo-bound variants, the
// consistency of the extracted real solution, and a pin on every
// program the classic sweep generates.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "support/Rng.h"
#include "thistle/GpBuilder.h"
#include "thistle/PairSweep.h"
#include "thistle/PermutationSpace.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

using namespace thistle;

namespace {

struct GpBuilderFixture : public ::testing::Test {
  ConvLayer Layer;
  Problem Prob = [this] {
    Layer.K = 16;
    Layer.C = 8;
    Layer.Hin = 8;
    Layer.Win = 8;
    Layer.R = 3;
    Layer.S = 3;
    return makeConvProblem(Layer);
  }();

  GpBuildSpec baseSpec(DesignMode Mode, SearchObjective Obj) {
    GpBuildSpec Spec;
    Spec.Mode = Mode;
    Spec.Objective = Obj;
    Spec.TiledIters = {Prob.iteratorIndex("k"), Prob.iteratorIndex("c"),
                       Prob.iteratorIndex("h"), Prob.iteratorIndex("w")};
    Spec.PePerm = Spec.TiledIters;
    Spec.DramPerm = Spec.TiledIters;
    Spec.Arch = eyerissArch();
    Spec.AreaBudgetUm2 = eyerissAreaUm2(Spec.Tech);
    return Spec;
  }

  static bool hasConstraint(const GpProblem &Gp, const std::string &Label) {
    for (const GpProblem::Constraint &C : Gp.constraints())
      if (C.Label == Label)
        return true;
    return false;
  }
};

} // namespace

TEST_F(GpBuilderFixture, DataflowModeStructure) {
  GpBuild B = buildGp(
      Prob, baseSpec(DesignMode::DataflowOnly, SearchObjective::Energy));
  EXPECT_FALSE(B.HasArchVars);
  EXPECT_FALSE(B.HasEpigraph);
  EXPECT_TRUE(hasConstraint(B.Gp, "RegisterFile capacity"));
  EXPECT_TRUE(hasConstraint(B.Gp, "SRAM capacity"));
  EXPECT_TRUE(hasConstraint(B.Gp, "PE count"));
  EXPECT_FALSE(hasConstraint(B.Gp, "area"));
  EXPECT_TRUE(B.Gp.objective().isPosynomial());
  // One extent equality per tiled iterator; untiled/extent-1 iterators
  // get pinning equalities.
  EXPECT_GE(B.Gp.equalities().size(), 4u);
}

TEST_F(GpBuilderFixture, CoDesignModeStructure) {
  GpBuild B = buildGp(Prob,
                      baseSpec(DesignMode::CoDesign, SearchObjective::Energy));
  EXPECT_TRUE(B.HasArchVars);
  EXPECT_TRUE(hasConstraint(B.Gp, "area"));
  EXPECT_TRUE(B.Gp.variables().contains("R"));
  EXPECT_TRUE(B.Gp.variables().contains("S"));
  EXPECT_TRUE(B.Gp.variables().contains("P"));
}

TEST_F(GpBuilderFixture, DelayEpigraphStructure) {
  GpBuild B = buildGp(
      Prob, baseSpec(DesignMode::DataflowOnly, SearchObjective::Delay));
  EXPECT_TRUE(B.HasEpigraph);
  EXPECT_TRUE(hasConstraint(B.Gp, "compute cycles"));
  EXPECT_TRUE(hasConstraint(B.Gp, "DRAM cycles"));
  EXPECT_TRUE(hasConstraint(B.Gp, "SRAM cycles"));
  // The objective is just T.
  EXPECT_TRUE(B.Gp.objective().isMonomial());
}

TEST_F(GpBuilderFixture, EdpObjectiveIsPosynomialWithEpigraph) {
  GpBuild B = buildGp(
      Prob,
      baseSpec(DesignMode::CoDesign, SearchObjective::EnergyDelayProduct));
  EXPECT_TRUE(B.HasEpigraph);
  EXPECT_TRUE(B.Gp.objective().isPosynomial());
  EXPECT_GT(B.Gp.objective().monomials().size(), 1u);
  // Every objective term carries the epigraph variable T.
  for (const Monomial &M : B.Gp.objective().monomials())
    EXPECT_TRUE(M.mentions(B.EpigraphVar));
}

TEST_F(GpBuilderFixture, AllConstraintsArePosynomials) {
  for (DesignMode Mode : {DesignMode::DataflowOnly, DesignMode::CoDesign})
    for (SearchObjective Obj :
         {SearchObjective::Energy, SearchObjective::Delay,
          SearchObjective::EnergyDelayProduct}) {
      GpBuild B = buildGp(Prob, baseSpec(Mode, Obj));
      for (const GpProblem::Constraint &C : B.Gp.constraints())
        EXPECT_TRUE(C.Lhs.isPosynomial()) << C.Label;
    }
}

TEST_F(GpBuilderFixture, HaloBoundVariantsBothSolve) {
  for (HaloBound Halo :
       {HaloBound::DropNegative, HaloBound::ProductOfTerms}) {
    GpBuildSpec Spec =
        baseSpec(DesignMode::DataflowOnly, SearchObjective::Energy);
    Spec.Halo = Halo;
    GpBuild B = buildGp(Prob, Spec);
    GpSolution S = solveGp(B.Gp);
    EXPECT_TRUE(S.Feasible) << "halo bound " << static_cast<int>(Halo);
  }
}

TEST_F(GpBuilderFixture, SolutionSatisfiesExtentEqualities) {
  GpBuildSpec Spec =
      baseSpec(DesignMode::DataflowOnly, SearchObjective::Energy);
  GpBuild B = buildGp(Prob, Spec);
  GpSolution S = solveGp(B.Gp);
  ASSERT_TRUE(S.Feasible);
  RealSolution Real = extractSolution(Prob, B, Spec, S);
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    double Product = Real.Spatial[I];
    for (const std::vector<double> &Level : Real.Trips)
      Product *= Level[I];
    EXPECT_NEAR(Product, static_cast<double>(Prob.iterators()[I].Extent),
                1e-6 * Product)
        << Prob.iterators()[I].Name;
  }
  EXPECT_DOUBLE_EQ(Real.CapacityWords[0], 512.0);
  EXPECT_DOUBLE_EQ(Real.NumPEs, 168.0);
}

TEST_F(GpBuilderFixture, CoDesignSolutionRespectsArea) {
  GpBuildSpec Spec = baseSpec(DesignMode::CoDesign, SearchObjective::Energy);
  GpBuild B = buildGp(Prob, Spec);
  GpSolution S = solveGp(B.Gp);
  ASSERT_TRUE(S.Feasible);
  RealSolution Real = extractSolution(Prob, B, Spec, S);
  double Area = (Spec.Tech.AreaRegWordUm2 * Real.CapacityWords[0] +
                 Spec.Tech.AreaMacUm2) *
                    Real.NumPEs +
                Spec.Tech.AreaSramWordUm2 * Real.CapacityWords[1];
  EXPECT_LE(Area, Spec.AreaBudgetUm2 * 1.0001);
}

TEST_F(GpBuilderFixture, GpOptimumIsNoWorseThanRandomFeasiblePoints) {
  // Probabilistic optimality check: sample random feasible integer
  // mappings and evaluate the GP objective expression on them; none may
  // beat the solver's optimum (up to tolerance).
  GpBuildSpec Spec =
      baseSpec(DesignMode::DataflowOnly, SearchObjective::Energy);
  GpBuild B = buildGp(Prob, Spec);
  GpSolution S = solveGp(B.Gp);
  ASSERT_TRUE(S.Feasible);

  Rng R(17);
  const VarTable &Vars = B.Gp.variables();
  unsigned Checked = 0;
  for (int Trial = 0; Trial < 200; ++Trial) {
    Assignment A(Vars.size(), 1.0);
    // Random split of each tiled extent across its four tile loops.
    for (unsigned I : Spec.TiledIters) {
      std::int64_t Extent = Prob.iterators()[I].Extent;
      std::vector<VarId> Loops = {B.TripVars[0][I], B.TripVars[1][I],
                                  B.SpatialVars[I], B.TripVars[2][I]};
      double LogRemaining = std::log(static_cast<double>(Extent));
      for (std::size_t K = 0; K + 1 < Loops.size(); ++K) {
        double Share = R.nextDouble() * LogRemaining;
        A[Loops[K]] = std::exp(Share);
        LogRemaining -= Share;
      }
      A[Loops.back()] = std::exp(LogRemaining);
    }
    // Untiled iterators: whole extent at the register level.
    for (unsigned I = 0; I < Prob.numIterators(); ++I) {
      bool Tiled = std::find(Spec.TiledIters.begin(), Spec.TiledIters.end(),
                             I) != Spec.TiledIters.end();
      if (!Tiled)
        A[B.TripVars[0][I]] = static_cast<double>(Prob.iterators()[I].Extent);
    }
    // Check feasibility against the GP's own constraints.
    bool Feasible = true;
    for (const GpProblem::Constraint &C : B.Gp.constraints())
      if (C.Lhs.evaluate(A) > 1.0) {
        Feasible = false;
        break;
      }
    if (!Feasible)
      continue;
    ++Checked;
    EXPECT_GE(B.Gp.objective().evaluate(A), S.Objective * (1.0 - 1e-4));
  }
  EXPECT_GT(Checked, 0u) << "no random point was feasible; weak test";
}

namespace {

/// Folds \p Bytes into the FNV-1a-64 hash \p H.
void foldBytes(std::uint64_t &H, const void *Bytes, std::size_t Size) {
  for (std::size_t I = 0; I < Size; ++I) {
    H ^= static_cast<const unsigned char *>(Bytes)[I];
    H *= 0x100000001b3ull;
  }
}

template <typename T> void foldValue(std::uint64_t &H, T Value) {
  foldBytes(H, &Value, sizeof(Value));
}

/// Folds a monomial: its coefficient and exponent bits, variable ids.
void foldMonomial(std::uint64_t &H, const Monomial &M) {
  foldValue(H, M.coefficient());
  foldValue(H, M.terms().size());
  for (const Monomial::Term &T : M.terms()) {
    foldValue(H, T.Var);
    foldValue(H, T.Exp);
  }
}

/// Every field of a layer its problem depends on (not its name).
std::string shapeKey(const ConvLayer &L) {
  std::string Key;
  for (std::int64_t V :
       {L.N, L.K, L.C, L.Hin, L.Win, L.R, L.S, L.StrideX, L.StrideY,
        L.DilationX, L.DilationY, L.Groups,
        static_cast<std::int64_t>(L.Transposed),
        static_cast<std::int64_t>(L.Padding)})
    Key += std::to_string(V) + ",";
  return Key;
}

void foldPosynomial(std::uint64_t &H, const Posynomial &P) {
  foldValue(H, P.monomials().size());
  for (const Monomial &M : P.monomials())
    foldMonomial(H, M);
}

} // namespace

TEST(GpBuilder, ClassicProgramsArePinned) {
  // Every classic program, bit for bit: variable names in VarId order,
  // every objective and constraint term in order (coefficient and
  // exponent bits) and every equality, over the unique shapes of the
  // four network tables, dataflow on Eyeriss and co-design at its area,
  // all three objectives, both halo bounds and the first four planned
  // pairs. Labels are not hashed. The constant was recorded before the
  // builder was generalized to any hierarchy depth.
  const TechParams Tech = TechParams::cgo45nm();
  std::vector<ConvLayer> Shapes;
  std::vector<std::string> Keys;
  for (const std::vector<ConvLayer> &Network :
       {resnet18NetworkLayers(), yolo9000NetworkLayers(),
        mobilenetV2NetworkLayers(), dcganNetworkLayers()})
    for (const ConvLayer &L : Network) {
      std::string Key = shapeKey(L);
      if (std::find(Keys.begin(), Keys.end(), Key) != Keys.end())
        continue;
      Keys.push_back(std::move(Key));
      Shapes.push_back(L);
    }

  std::uint64_t Hash = 0xcbf29ce484222325ull;
  std::size_t Programs = 0;
  for (const ConvLayer &Shape : Shapes) {
    const Problem Prob = makeConvProblem(Shape);
    const LayerSweepPlan Plan = planLayerSweep(Prob, ThistleOptions());
    for (DesignMode Mode : {DesignMode::DataflowOnly, DesignMode::CoDesign})
      for (SearchObjective Objective :
           {SearchObjective::Energy, SearchObjective::Delay,
            SearchObjective::EnergyDelayProduct})
        for (HaloBound Halo :
             {HaloBound::DropNegative, HaloBound::ProductOfTerms})
          for (std::size_t T = 0; T < 4 && T < Plan.Pairs.size(); ++T) {
            GpBuildSpec Spec;
            Spec.Mode = Mode;
            Spec.Objective = Objective;
            Spec.PePerm = Plan.Classes[Plan.Pairs[T].QI].Representative;
            Spec.DramPerm = Plan.Classes[Plan.Pairs[T].SI].Representative;
            Spec.TiledIters = Plan.TiledIters;
            Spec.Halo = Halo;
            Spec.Arch = eyerissArch();
            Spec.Tech = Tech;
            if (Mode == DesignMode::CoDesign)
              Spec.AreaBudgetUm2 = eyerissAreaUm2(Tech);
            const GpBuild Build = buildGp(Prob, Spec);
            const GpProblem &Gp = Build.Gp;
            foldValue(Hash, Gp.variables().size());
            for (VarId V = 0; V < Gp.variables().size(); ++V) {
              const std::string &Name = Gp.variables().nameOf(V);
              foldBytes(Hash, Name.data(), Name.size() + 1);
            }
            foldPosynomial(Hash, Gp.objective());
            foldValue(Hash, Gp.constraints().size());
            for (const GpProblem::Constraint &C : Gp.constraints())
              foldPosynomial(Hash, C.Lhs);
            foldValue(Hash, Gp.equalities().size());
            for (const GpProblem::Equality &E : Gp.equalities())
              foldMonomial(Hash, E.Lhs);
            ++Programs;
          }
  }
  EXPECT_EQ(Shapes.size(), 59u);
  EXPECT_EQ(Programs, 2832u);
  EXPECT_EQ(Hash, 0x234bb7ff25ecde7dull);
}

//===- thistle/GpBuilder.cpp - Assemble Eq. 3 / Eq. 5 programs ------------===//

#include "thistle/GpBuilder.h"

#include "thistle/ExprGen.h"

#include <algorithm>
#include <cassert>

using namespace thistle;

namespace {

bool isTiled(const HierarchyGpSpec &Spec, unsigned Iter) {
  return std::find(Spec.TiledIters.begin(), Spec.TiledIters.end(), Iter) !=
         Spec.TiledIters.end();
}

/// The co-design capacity variable of \p Level: R at the register
/// level, S above it (S<l> for a deeper level l), as in Eq. 5.
std::string capacityName(unsigned Level) {
  if (Level == 0)
    return "R";
  std::string Name = "S";
  if (Level > 1)
    Name += std::to_string(Level);
  return Name;
}

} // namespace

HierarchyGpSpec thistle::hierarchyGpSpec(const GpBuildSpec &Spec) {
  HierarchyGpSpec Out;
  Out.Mode = Spec.Mode;
  Out.Objective = Spec.Objective;
  Out.Perms = {{}, Spec.PePerm, Spec.DramPerm};
  Out.TiledIters = Spec.TiledIters;
  Out.SpatialUntiled = Spec.SpatialUntiled;
  Out.Halo = Spec.Halo;
  Out.Tech = Spec.Tech;
  Out.AreaBudgetUm2 = Spec.AreaBudgetUm2;
  return Out;
}

GpBuild thistle::buildGp(const Problem &Prob, const Hierarchy &H,
                         const HierarchyGpSpec &Spec) {
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;
  const unsigned NumIters = Prob.numIterators();
  GpBuild Build;
  GpProblem &Gp = Build.Gp;
  ExprGen EG(Prob, H, Gp.variables());
  Build.TripVars.assign(L, std::vector<VarId>(NumIters));
  for (unsigned I = 0; I < NumIters; ++I) {
    for (unsigned Lv = 0; Lv < L; ++Lv)
      Build.TripVars[Lv][I] = EG.tripVar(Lv, I);
    Build.SpatialVars.push_back(EG.spatialVar(I));
  }

  // ---- Variable structure per iterator.
  for (unsigned I = 0; I < NumIters; ++I) {
    const double Extent =
        static_cast<double>(Prob.iterators()[I].Extent);
    const std::string &Name = Prob.iterators()[I].Name;
    // The iterator's tile loops, inner to outer.
    std::vector<VarId> Loops;
    for (unsigned Lv = 0; Lv <= F; ++Lv)
      Loops.push_back(EG.tripVar(Lv, I));
    Loops.push_back(EG.spatialVar(I));
    for (unsigned Lv = F + 1; Lv < L; ++Lv)
      Loops.push_back(EG.tripVar(Lv, I));
    if (isTiled(Spec, I)) {
      Monomial Product(1.0);
      for (VarId V : Loops) {
        Gp.addVariableBounds(V, Extent);
        Product = Product * Monomial::variable(V);
      }
      Gp.addEquality(Product, Extent, "extent " + Name);
    } else if (Spec.SpatialUntiled && Extent > 1) {
      // Untiled temporally, but the extent may split between the
      // register level and the fan-out (r * p = N).
      VarId R = EG.tripVar(0, I), P = EG.spatialVar(I);
      Gp.addVariableBounds(R, Extent);
      Gp.addVariableBounds(P, Extent);
      Gp.addEquality(Monomial::variable(R) * Monomial::variable(P), Extent,
                     "untiled " + Name);
      for (unsigned Lv = 1; Lv < L; ++Lv)
        Gp.addEquality(Monomial::variable(EG.tripVar(Lv, I)), 1.0,
                       "untiled " + Name);
    } else {
      // Untiled: the whole extent sits at the register level.
      Gp.addEquality(Monomial::variable(Loops[0]), Extent, "untiled " + Name);
      for (std::size_t K = 1; K < Loops.size(); ++K)
        Gp.addEquality(Monomial::variable(Loops[K]), 1.0, "untiled " + Name);
    }
  }

  // ---- Architecture parameters: constants or variables. Eps[l] is the
  // per-access energy of level l, Cap[l] the capacity of an on-chip one.
  std::vector<Monomial> Eps(L, Monomial(0.0)), Cap(L - 1, Monomial(0.0));
  Monomial PeCap(0.0);
  if (Spec.Mode == DesignMode::CoDesign) {
    const TechParams &Tech = Spec.Tech;
    Build.HasArchVars = true;
    for (unsigned Lv = 0; Lv + 1 < L; ++Lv)
      Build.CapacityVars.push_back(Gp.addVariable(capacityName(Lv)));
    Build.NumPEVar = Gp.addVariable("P");
    // A non-positive budget is caught by checkSweepInputs; here it would
    // silently produce infinite variable bounds.
    for (unsigned Lv = 0; Lv + 1 < L; ++Lv)
      Gp.addVariableBounds(Build.CapacityVars[Lv],
                           Spec.AreaBudgetUm2 / (Lv == 0 ? Tech.AreaRegWordUm2
                                                         : Tech.AreaSramWordUm2));
    Gp.addVariableBounds(Build.NumPEVar, Spec.AreaBudgetUm2 / Tech.AreaMacUm2);
    // Area model, Eq. 5: AreaR*R*P + AreaMAC*P + AreaS*S <= budget, a
    // per-PE SRAM level paying once per PE.
    const Monomial PEs = Monomial::variable(Build.NumPEVar);
    Posynomial Area;
    Area += Signomial(Monomial::variable(Build.CapacityVars[0]) *
                      PEs.scaled(Tech.AreaRegWordUm2));
    Area += Signomial(PEs.scaled(Tech.AreaMacUm2));
    for (unsigned Lv = 1; Lv + 1 < L; ++Lv) {
      Monomial Words = Monomial::variable(Build.CapacityVars[Lv]);
      Area += Signomial(Lv < F ? Words * PEs.scaled(Tech.AreaSramWordUm2)
                               : Words.scaled(Tech.AreaSramWordUm2));
    }
    Gp.addUpperBound(Area, Spec.AreaBudgetUm2, "area");

    for (unsigned Lv = 0; Lv + 1 < L; ++Lv) {
      VarId C = Build.CapacityVars[Lv];
      Eps[Lv] = Lv == 0 ? Monomial::variable(C, 1.0, Tech.SigmaRegPj)
                        : Monomial::variable(C, 0.5, Tech.SigmaSramPj);
      Cap[Lv] = Monomial::variable(C);
    }
    Eps[L - 1] = Monomial(H.Levels[L - 1].AccessEnergyPj);
    PeCap = PEs;
  } else {
    for (unsigned Lv = 0; Lv < L; ++Lv)
      Eps[Lv] = Monomial(H.Levels[Lv].AccessEnergyPj);
    for (unsigned Lv = 0; Lv + 1 < L; ++Lv)
      Cap[Lv] = Monomial(static_cast<double>(H.Levels[Lv].CapacityWords));
    PeCap = Monomial(static_cast<double>(H.NumPEs));
  }

  // ---- Tensor models and capacity constraints. The register capacity
  // constraint lives in the small-tile regime where the halo-bound choice
  // matters; volumes and the footprints above it involve large tiles
  // where DropNegative is the tight bound.
  std::vector<Posynomial> Footprint(L - 1), Volume(L - 1);
  for (unsigned TI = 0; TI < Prob.tensors().size(); ++TI) {
    TensorSymbolicModel Model = EG.buildTensorModel(TI, Spec.Perms);
    Footprint[0] +=
        Spec.Halo == HaloBound::DropNegative
            ? Model.Footprint[0].posynomialUpperBound().expanded()
            : Model.Footprint[0].monomialProductUpperBound().expanded();
    for (unsigned Lv = 1; Lv + 1 < L; ++Lv)
      Footprint[Lv] += Model.Footprint[Lv].posynomialUpperBound().expanded();
    for (unsigned B = 0; B + 1 < L; ++B)
      Volume[B] += Model.Volume[B].posynomialUpperBound().expanded();
  }
  for (unsigned Lv = 0; Lv + 1 < L; ++Lv)
    Gp.addUpperBound(Footprint[Lv], Cap[Lv], H.Levels[Lv].Name + " capacity");

  // Every spatial trip count participates in the PE budget (untiled
  // iterators' p variables are either pinned to 1 or spatially split).
  Monomial SpatialProduct(1.0);
  for (unsigned I = 0; I < NumIters; ++I)
    SpatialProduct = SpatialProduct * Monomial::variable(EG.spatialVar(I));
  Gp.addUpperBound(Posynomial(SpatialProduct), PeCap, "PE count");

  // The words each level serves: the traffic of its two adjacent
  // boundaries.
  auto adjacent = [&](unsigned Lv) {
    if (Lv == 0)
      return Volume[0];
    if (Lv + 1 == L)
      return Volume[Lv - 1];
    return Volume[Lv - 1] + Volume[Lv];
  };

  // ---- Objective.
  const double Nops = static_cast<double>(Prob.numOps());
  // Eq. 3 energy: (4 eps_R + eps_op) Nops + eps_R DV(S<->R)
  //               + eps_S (DV(S<->R) + DV(S<->D)) + eps_D DV(S<->D),
  // each level priced over the words it serves.
  Posynomial EnergyObj;
  EnergyObj += Posynomial(Eps[0].scaled(4.0 * Nops));
  EnergyObj += Posynomial(Monomial(H.MacEnergyPj * Nops));
  for (unsigned Lv = 0; Lv < L; ++Lv)
    EnergyObj += adjacent(Lv) * Eps[Lv];

  if (Spec.Objective == SearchObjective::Energy) {
    Gp.setObjective(std::move(EnergyObj));
    return Build;
  }

  // Delay epigraph: T bounds every component's cycles (section V-B: "the
  // cost expression contains the maximum among the delays").
  Build.HasEpigraph = true;
  Build.EpigraphVar = Gp.addVariable("T");
  Gp.addVariableBounds(Build.EpigraphVar, /*UpperBound=*/Nops * 1e6);
  Monomial T = Monomial::variable(Build.EpigraphVar);
  // Compute: Nops / (prod p) <= T.
  Gp.addUpperBound(Posynomial(SpatialProduct.pow(-1.0).scaled(Nops)), T,
                   "compute cycles");
  // Each level above the registers, outermost first: the words it serves
  // over its bandwidth, a per-PE level having one instance per PE.
  for (unsigned Lv = L; Lv-- > 1;) {
    Posynomial Cycles = adjacent(Lv).scaled(1.0 / H.Levels[Lv].Bandwidth);
    if (Lv < F)
      Cycles = Cycles * SpatialProduct.pow(-1.0);
    Gp.addUpperBound(Cycles, T, H.Levels[Lv].Name + " cycles");
  }
  if (Spec.Objective == SearchObjective::Delay) {
    Gp.setObjective(Posynomial(T));
  } else {
    // Energy-delay product: posynomial * monomial is a posynomial, so
    // EDP fits DGP directly (the extension the paper mentions).
    Gp.setObjective(EnergyObj * T);
  }
  return Build;
}

GpBuild thistle::buildGp(const Problem &Prob, const GpBuildSpec &Spec) {
  return buildGp(Prob, Hierarchy::classic3Level(Spec.Arch, Spec.Tech),
                 hierarchyGpSpec(Spec));
}

RealSolution thistle::extractSolution(const Hierarchy &H,
                                      const GpBuild &Build,
                                      const GpSolution &Solution) {
  assert(Solution.Feasible && "extraction requires a feasible solution");
  auto valuesOf = [&](const std::vector<VarId> &Vars) {
    std::vector<double> Values;
    for (VarId V : Vars)
      Values.push_back(Solution.Values[V]);
    return Values;
  };
  RealSolution Real;
  for (const std::vector<VarId> &Level : Build.TripVars)
    Real.Trips.push_back(valuesOf(Level));
  Real.Spatial = valuesOf(Build.SpatialVars);
  if (Build.HasArchVars) {
    Real.CapacityWords = valuesOf(Build.CapacityVars);
    Real.NumPEs = Solution.Values[Build.NumPEVar];
  } else {
    for (unsigned Lv = 0; Lv + 1 < H.numLevels(); ++Lv)
      Real.CapacityWords.push_back(
          static_cast<double>(H.Levels[Lv].CapacityWords));
    Real.NumPEs = static_cast<double>(H.NumPEs);
  }
  Real.Objective = Solution.Objective;
  return Real;
}

RealSolution thistle::extractSolution(const Problem &, const GpBuild &Build,
                                      const GpBuildSpec &Spec,
                                      const GpSolution &Solution) {
  return extractSolution(Hierarchy::classic3Level(Spec.Arch, Spec.Tech),
                         Build, Solution);
}

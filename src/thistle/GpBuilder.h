//===- thistle/GpBuilder.h - Assemble Eq. 3 / Eq. 5 programs ----*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the constrained geometric programs of the paper for one
/// choice of tile-loop permutations, on a memory hierarchy of any depth:
///
///  - dataflow optimization (Eq. 3): architecture parameters are fixed
///    constants, trip counts are the variables;
///  - architecture-dataflow co-design (Eq. 5): the capacity of every
///    on-chip level and the PE count P become variables, the per-access
///    energies follow Eq. 4 (eps = sigma_R*C at the register level,
///    sigma_S*sqrt(C) at the SRAM levels above it), and the linear area
///    model bounds the total silicon area (per-PE levels pay once per
///    PE);
///  - either objective: energy (the Eq. 3 sum) or delay, where the
///    max-of-components delay is expressed with the standard epigraph
///    trick (minimize T subject to component/T <= 1).
///
/// The classic entry points (GpBuildSpec) generate the paper's programs
/// on Hierarchy::classic3Level: register capacity R, SRAM capacity S.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_GPBUILDER_H
#define THISTLE_THISTLE_GPBUILDER_H

#include "ir/Problem.h"
#include "model/TechModel.h"
#include "multilevel/Hierarchy.h"
#include "nestmodel/Objective.h"
#include "solver/GpProblem.h"
#include "solver/GpSolver.h"

#include <vector>

namespace thistle {

/// Whether architecture parameters are variables.
enum class DesignMode {
  DataflowOnly, ///< Eq. 3: fixed architecture.
  CoDesign,     ///< Eq. 5: capacities and P variables under an area budget.
};

/// How signomial halo factors (e.g. r_h + r_r - 1) are over-approximated
/// to stay within DGP.
enum class HaloBound {
  /// Drop the negative constant: r_h + r_r. Tight for large tiles, up to
  /// ~2x loose near the all-ones corner (can make tiny register files
  /// look infeasible).
  DropNegative,
  /// Product of the positive monomials: r_h * r_r. Exact whenever one
  /// side is 1 (the small-tile regime), loose for large tiles. Used as a
  /// fallback when DropNegative is infeasible.
  ProductOfTerms,
};

/// Everything but the machine needed to generate one GP on a hierarchy.
struct HierarchyGpSpec {
  DesignMode Mode = DesignMode::DataflowOnly;
  SearchObjective Objective = SearchObjective::Energy;
  /// Perms[l] for 1 <= l < L: outer-to-inner order of level l's
  /// temporal tile loops (tiled iterators only). Perms[0] is ignored.
  std::vector<std::vector<unsigned>> Perms;
  /// Iterators allowed to be tiled temporally; all others (stencil dims
  /// r/s, extent-1 dims) keep trip count 1 at every temporal level above
  /// the register level.
  std::vector<unsigned> TiledIters;
  /// When true, untiled iterators may still be *spatially* partitioned
  /// (r_it * p_it = N_it): Eyeriss-style row-stationary mapping of the
  /// kernel rows across the PE array. The paper's pruning only forbids
  /// temporal tiling of the stencil dims ("it is infeasible to divide
  /// them into a number of equal tiles"); spatial unrolling keeps whole
  /// rows per PE and is essential for the delay objective.
  bool SpatialUntiled = true;
  /// Over-approximation used for halo factors in the register-level
  /// footprint (the small-tile regime where the choice matters).
  HaloBound Halo = HaloBound::DropNegative;
  /// Eq. 4 energy laws and Eq. 5 area model (CoDesign).
  TechParams Tech = TechParams::cgo45nm();
  /// Area budget for co-design (Eq. 5 right-hand side), in um^2.
  double AreaBudgetUm2 = 0.0;
};

/// Everything needed to generate one GP on the classic 3-level machine.
struct GpBuildSpec {
  DesignMode Mode = DesignMode::DataflowOnly;
  SearchObjective Objective = SearchObjective::Energy;
  /// Outer-to-inner per-PE temporal permutation (tiled iterators only).
  std::vector<unsigned> PePerm;
  /// Outer-to-inner DRAM-level temporal permutation (tiled iterators only).
  std::vector<unsigned> DramPerm;
  /// See HierarchyGpSpec.
  std::vector<unsigned> TiledIters;
  bool SpatialUntiled = true;
  HaloBound Halo = HaloBound::DropNegative;
  /// Fixed architecture (DataflowOnly) / bandwidth source (CoDesign).
  ArchConfig Arch;
  TechParams Tech = TechParams::cgo45nm();
  /// Area budget for co-design (Eq. 5 right-hand side), in um^2.
  double AreaBudgetUm2 = 0.0;
};

/// The hierarchy-generic form of a classic spec: level 1 runs the per-PE
/// permutation, level 2 the DRAM one.
HierarchyGpSpec hierarchyGpSpec(const GpBuildSpec &Spec);

/// The generated GP plus the variable handles needed for extraction.
struct GpBuild {
  GpProblem Gp;
  /// TripVars[l][i]: temporal trip-count variable of iterator i at
  /// level l.
  std::vector<std::vector<VarId>> TripVars;
  /// SpatialVars[i]: the PE fan-out trip-count variable of iterator i.
  std::vector<VarId> SpatialVars;
  bool HasArchVars = false;
  /// CapacityVars[l] for every level below the outermost (co-design
  /// only; R and S on the classic machine).
  std::vector<VarId> CapacityVars;
  VarId NumPEVar = 0; ///< P (co-design only).
  bool HasEpigraph = false;
  VarId EpigraphVar = 0; ///< T (delay objective only).
};

/// Builds the GP for \p Prob on \p H under \p Spec (H must validate;
/// its capacities and energies are ignored in co-design, its fan-out
/// and bandwidths never are).
GpBuild buildGp(const Problem &Prob, const Hierarchy &H,
                const HierarchyGpSpec &Spec);

/// Builds the GP for \p Prob under \p Spec on its classic machine.
/// \p Spec needs positive technology constants and capacities, and in
/// co-design a positive area budget (checkSweepInputs); otherwise the
/// program is unusable (e.g. infinite variable bounds), not a diagnostic.
GpBuild buildGp(const Problem &Prob, const GpBuildSpec &Spec);

/// The real (pre-rounding) solution in mapping terms.
struct RealSolution {
  /// Trips[l][i]: real temporal trip count of iterator i at level l.
  std::vector<std::vector<double>> Trips;
  /// Spatial[i]: real PE fan-out trip count of iterator i.
  std::vector<double> Spatial;
  /// CapacityWords[l] for every level below the outermost (solved, or
  /// the hierarchy's fixed ones).
  std::vector<double> CapacityWords;
  double NumPEs = 0.0;    ///< P.
  double Objective = 0.0; ///< GP objective value (model estimate).
};

/// Extracts the real solution from a feasible \p Solution of \p Build,
/// generated for \p H.
RealSolution extractSolution(const Hierarchy &H, const GpBuild &Build,
                             const GpSolution &Solution);

/// As above, for a GP generated from a classic \p Spec.
RealSolution extractSolution(const Problem &Prob, const GpBuild &Build,
                             const GpBuildSpec &Spec,
                             const GpSolution &Solution);

} // namespace thistle

#endif // THISTLE_THISTLE_GPBUILDER_H

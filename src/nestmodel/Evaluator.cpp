//===- nestmodel/Evaluator.cpp - Energy/delay evaluation ------------------===//
//
// Thin wrapper over the hierarchy-generic evaluation: the architecture is
// lifted to Hierarchy::classic3Level (which prices the levels with the
// same Eq. 4 per-access energies the fixed-depth code used) and the
// per-level decomposition maps back onto the Eq. 3 components. The
// floating-point grouping of the generic evaluator matches this code's
// original expression term for term, so the wrapped results are
// bit-identical to the pre-unification ones.
//
//===----------------------------------------------------------------------===//

#include "nestmodel/Evaluator.h"

#include "multilevel/MultiNestAnalysis.h"
#include "nestmodel/CostEvaluator.h"

#include <string>

using namespace thistle;

EvalResult thistle::evalResultFromMulti(const Problem &Prob,
                                        const ArchConfig &Arch,
                                        const MultiEvalResult &ME) {
  EvalResult Result;
  Result.Profile = profileFromMulti(Prob, ME.Profile);
  const NestProfile &P = Result.Profile;

  // Legality, regenerated in the fixed-depth wording (the generic
  // evaluator names the levels after the hierarchy).
  Result.Legal = ME.Legal;
  std::string &Why = Result.IllegalReason;
  if (P.RegTileWords > Arch.RegWordsPerPE)
    Why += "register tile " + std::to_string(P.RegTileWords) +
           " words > capacity " + std::to_string(Arch.RegWordsPerPE) + "; ";
  if (P.SramTileWords > Arch.SramWords)
    Why += "SRAM tile " + std::to_string(P.SramTileWords) +
           " words > capacity " + std::to_string(Arch.SramWords) + "; ";
  if (P.PEsUsed > Arch.NumPEs)
    Why += "uses " + std::to_string(P.PEsUsed) + " PEs > available " +
           std::to_string(Arch.NumPEs) + "; ";

  // Eq. 3 components from the per-level decomposition.
  Result.MacEnergyPj = ME.MacEnergyPj;
  Result.RegEnergyPj = ME.EnergyPerLevelPj[0];
  Result.SramEnergyPj = ME.EnergyPerLevelPj[1];
  Result.DramEnergyPj = ME.EnergyPerLevelPj[2];
  Result.EnergyPj = ME.EnergyPj;
  Result.EnergyPerMacPj = ME.EnergyPerMacPj;

  // Section V-B delay components.
  Result.ComputeCycles = ME.ComputeCycles;
  Result.SramCycles = ME.CyclesPerLevel[1];
  Result.DramCycles = ME.CyclesPerLevel[2];
  Result.Cycles = ME.Cycles;
  Result.MacIpc = ME.MacIpc;
  Result.EdpPjCycles = ME.EdpPjCycles;
  return Result;
}

EvalResult thistle::evaluateMapping(const Problem &Prob, const Mapping &Map,
                                    const ArchConfig &Arch,
                                    const EnergyModel &Energy) {
  Hierarchy H = Hierarchy::classic3Level(Arch, Energy.tech());
  MultiEvalResult ME =
      evaluateMultiMapping(Prob, H, MultiMapping::fromMapping(Prob, Map));
  return evalResultFromMulti(Prob, Arch, ME);
}

EvalResult thistle::evaluateMapping(const Problem &Prob, const Mapping &Map,
                                    const ArchConfig &Arch,
                                    const EnergyModel &Energy,
                                    const CostEvaluator &Evaluator) {
  Hierarchy H = Hierarchy::classic3Level(Arch, Energy.tech());
  MultiEvalResult ME =
      Evaluator.evaluate(Prob, H, MultiMapping::fromMapping(Prob, Map));
  return evalResultFromMulti(Prob, Arch, ME);
}

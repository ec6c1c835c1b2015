//===- multilevel/Hierarchy.cpp - Arbitrary-depth memory hierarchies ------===//

#include "multilevel/Hierarchy.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

using namespace thistle;

std::string Hierarchy::validate() const {
  // Text is built only for a failed check: analyzeMultiNest asserts this
  // on every evaluation.
  if (Levels.size() < 2)
    return "hierarchy needs at least two levels";
  if (FanoutLevel < 1 || FanoutLevel >= Levels.size())
    return std::string("fan-out level ") + std::to_string(FanoutLevel) +
           " out of range [1, " + std::to_string(Levels.size() - 1) + "]";
  if (NumPEs < 1)
    return "hierarchy needs at least one PE";
  for (std::size_t L = 0; L + 1 < Levels.size(); ++L)
    if (Levels[L].CapacityWords < 1)
      return "level " + Levels[L].Name + " has no capacity";
  for (const HierarchyLevel &L : Levels) {
    if (L.AccessEnergyPj < 0.0)
      return "negative access energy at level " + L.Name;
    if (L.Bandwidth <= 0.0)
      return "non-positive bandwidth at level " + L.Name;
  }
  return std::string();
}

double Hierarchy::areaUm2(const TechParams &Tech) const {
  double PerPE = Tech.AreaMacUm2 +
                 Tech.AreaRegWordUm2 * static_cast<double>(
                                           Levels[0].CapacityWords);
  for (unsigned L = 1; L < FanoutLevel; ++L)
    PerPE += Tech.AreaSramWordUm2 *
             static_cast<double>(Levels[L].CapacityWords);
  double Shared = 0.0;
  for (unsigned L = FanoutLevel; L + 1 < Levels.size(); ++L)
    Shared += Tech.AreaSramWordUm2 *
              static_cast<double>(Levels[L].CapacityWords);
  return PerPE * static_cast<double>(NumPEs) + Shared;
}

Hierarchy Hierarchy::classic3Level(const ArchConfig &Arch,
                                   const TechParams &Tech) {
  EnergyModel Energy(Tech);
  Hierarchy H;
  H.FanoutLevel = 1;
  H.NumPEs = Arch.NumPEs;
  H.MacEnergyPj = Energy.macPj();
  H.Levels = {
      {"RegisterFile", Arch.RegWordsPerPE,
       Energy.regAccessPj(static_cast<double>(Arch.RegWordsPerPE)),
       /*Bandwidth=*/1e9}, // Register accesses are part of the MAC pipe.
      {"SRAM", Arch.SramWords,
       Energy.sramAccessPj(static_cast<double>(Arch.SramWords)),
       Arch.SramBandwidth},
      {"DRAM", 0, Energy.dramAccessPj(), Arch.DramBandwidth},
  };
  return H;
}

Hierarchy Hierarchy::classic3Shape() {
  Hierarchy H;
  H.FanoutLevel = 1;
  H.NumPEs = 1;
  H.Levels = {
      {"RegisterFile", 1, 0.0, 1.0},
      {"SRAM", 1, 0.0, 1.0},
      {"DRAM", 0, 0.0, 1.0},
  };
  return H;
}

Hierarchy Hierarchy::withScratchpad(const ArchConfig &Arch,
                                    const TechParams &Tech,
                                    std::int64_t SpadWords,
                                    std::int64_t SramWords) {
  EnergyModel Energy(Tech);
  Hierarchy H;
  H.FanoutLevel = 2; // Registers and scratchpad are per PE.
  H.NumPEs = Arch.NumPEs;
  H.MacEnergyPj = Energy.macPj();
  H.Levels = {
      {"RegisterFile", Arch.RegWordsPerPE,
       Energy.regAccessPj(static_cast<double>(Arch.RegWordsPerPE)),
       /*Bandwidth=*/1e9},
      // The per-PE scratchpad is priced like a small SRAM (Eq. 4).
      {"Scratchpad", SpadWords,
       Energy.sramAccessPj(static_cast<double>(SpadWords)),
       /*Bandwidth=*/4.0},
      {"SRAM", SramWords,
       Energy.sramAccessPj(static_cast<double>(SramWords)),
       Arch.SramBandwidth},
      {"DRAM", 0, Energy.dramAccessPj(), Arch.DramBandwidth},
  };
  return H;
}

namespace {

/// Strict integer parse: the whole token must be a decimal integer.
bool parseInt64(const std::string &Token, std::int64_t &Out) {
  if (Token.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Token.c_str(), &End, 10);
  if (errno == ERANGE || End != Token.c_str() + Token.size())
    return false;
  Out = V;
  return true;
}

} // namespace

Expected<Hierarchy> thistle::parseHierarchy(const std::string &Text) {
  Hierarchy H;
  H.Levels.clear();
  bool SawFanout = false;

  if (fault::shouldFail("parse.hierarchy"))
    return Status::parseError("injected fault at site parse.hierarchy");

  std::istringstream Lines(Text);
  std::string Line;
  unsigned LineNo = 0;
  // The level whose capacity was '-' (unbounded); only the outermost
  // level may leave its capacity open.
  int UnboundedAtLine = 0;
  std::size_t UnboundedLevel = 0;
  while (std::getline(Lines, Line)) {
    ++LineNo;
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream Fields(Line);
    std::string Key;
    if (!(Fields >> Key))
      continue; // Blank or comment-only line.

    auto fail = [&](const std::string &What) {
      std::ostringstream Err;
      Err << "line " << LineNo << ": " << What;
      return Status::parseError(Err.str());
    };

    if (Key == "pes") {
      std::string Token;
      if (!(Fields >> Token) || !parseInt64(Token, H.NumPEs))
        return fail("'pes' wants an integer");
      if (H.NumPEs < 1)
        return fail("'pes' wants a positive count, got " + Token);
    } else if (Key == "mac-pj") {
      if (!(Fields >> H.MacEnergyPj) || !std::isfinite(H.MacEnergyPj))
        return fail("'mac-pj' wants a finite number");
      if (H.MacEnergyPj < 0.0)
        return fail("'mac-pj' wants a non-negative energy");
    } else if (Key == "fanout") {
      std::int64_t Level = 0;
      std::string Token;
      if (!(Fields >> Token) || !parseInt64(Token, Level))
        return fail("'fanout' wants a level index");
      if (Level < 1)
        return fail("'fanout' wants a level index >= 1, got " + Token);
      H.FanoutLevel = static_cast<unsigned>(Level);
      SawFanout = true;
    } else if (Key == "level") {
      HierarchyLevel L;
      std::string Capacity;
      if (!(Fields >> L.Name >> Capacity >> L.AccessEnergyPj >> L.Bandwidth))
        return fail("'level' wants: name capacity access-pj bandwidth");
      for (const HierarchyLevel &Seen : H.Levels)
        if (Seen.Name == L.Name)
          return fail("duplicate level name '" + L.Name + "'");
      if (Capacity == "-") {
        L.CapacityWords = 0;
        UnboundedAtLine = static_cast<int>(LineNo);
        UnboundedLevel = H.Levels.size();
      } else if (!parseInt64(Capacity, L.CapacityWords) ||
                 L.CapacityWords < 1) {
        return fail("level '" + L.Name +
                    "' wants a positive integer capacity or '-', got '" +
                    Capacity + "'");
      }
      if (!std::isfinite(L.AccessEnergyPj) || L.AccessEnergyPj < 0.0)
        return fail("level '" + L.Name +
                    "' wants a non-negative access energy");
      if (!std::isfinite(L.Bandwidth) || L.Bandwidth <= 0.0)
        return fail("level '" + L.Name + "' wants a positive bandwidth");
      H.Levels.push_back(L);
    } else {
      return fail("unknown key '" + Key + "'");
    }
    std::string Extra;
    if (Fields >> Extra)
      return fail("trailing field '" + Extra + "'");
  }

  if (UnboundedAtLine && UnboundedLevel + 1 != H.Levels.size()) {
    std::ostringstream Err;
    Err << "line " << UnboundedAtLine << ": level '"
        << H.Levels[UnboundedLevel].Name
        << "' has unbounded capacity '-' but is not the outermost level";
    return Status::parseError(Err.str());
  }
  if (!SawFanout)
    H.FanoutLevel = 1;
  std::string Why = H.validate();
  if (!Why.empty())
    return Status::parseError(std::move(Why));
  return H;
}

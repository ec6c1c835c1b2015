//===- multilevel/Hierarchy.h - Arbitrary-depth memory hierarchies -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's representation and Algorithm 1 "allow an arbitrary number
/// of tiling levels and arbitrary permutations at each level" (section
/// III-A); the evaluation only exercises the classic 3-memory
/// register/SRAM/DRAM machine. This module generalizes the whole
/// pipeline — analytical counting, brute-force oracle, GP generation and
/// rounding — to hierarchies of any depth, e.g. adding a per-PE
/// scratchpad between the register file and the shared SRAM.
///
/// A Hierarchy is a stack of temporal memory levels, inner to outer
/// (level 0 = per-PE registers, last level = backing DRAM), with one
/// spatial PE fan-out between two adjacent levels: levels below
/// FanoutLevel are private to a PE, levels at or above it are shared.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_MULTILEVEL_HIERARCHY_H
#define THISTLE_MULTILEVEL_HIERARCHY_H

#include "model/TechModel.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace thistle {

/// One memory level of a hierarchy.
struct HierarchyLevel {
  std::string Name;
  /// Capacity in words (per PE for private levels, total for shared
  /// ones). Ignored for the outermost level (backing store).
  std::int64_t CapacityWords = 0;
  /// Per-access energy in pJ.
  double AccessEnergyPj = 0.0;
  /// Bandwidth in words/cycle per instance (per PE for private levels).
  double Bandwidth = 1.0;
};

/// An L-level memory hierarchy with a PE fan-out.
struct Hierarchy {
  /// Levels inner to outer; size() >= 2.
  std::vector<HierarchyLevel> Levels;
  /// Index of the first *shared* level; levels below are per-PE.
  /// Must satisfy 1 <= FanoutLevel <= Levels.size() - 1.
  unsigned FanoutLevel = 1;
  std::int64_t NumPEs = 1;
  /// Energy per MAC operation (pJ), excluding register accesses.
  double MacEnergyPj = 0.0;

  unsigned numLevels() const { return Levels.size(); }
  /// Number of adjacent-level traffic boundaries (= numLevels() - 1).
  unsigned numBoundaries() const { return Levels.size() - 1; }

  /// Returns an empty string if the hierarchy is well-formed.
  std::string validate() const;

  /// Silicon area under the Eq. 5 linear model generalized to depth:
  /// level 0 is priced per register word, intermediate levels per SRAM
  /// word (per-PE levels pay once per PE), the outermost level is free.
  double areaUm2(const TechParams &Tech) const;

  /// The classic paper machine as a 3-level hierarchy: per-PE register
  /// file, shared SRAM, DRAM, with Eq. 4 access energies. Equivalent to
  /// an ArchConfig — this is the default instantiation the fixed-depth
  /// nestmodel/ and sim/ layers wrap the generic engine with.
  static Hierarchy classic3Level(const ArchConfig &Arch,
                                 const TechParams &Tech);

  /// The classic 3-level *structure* only (placeholder capacities,
  /// energies and bandwidths): enough for pure traffic analysis, where
  /// just the depth and the fan-out position matter.
  static Hierarchy classic3Shape();

  /// A 4-level variant of \p Arch: the same register file and DRAM, with
  /// the shared SRAM split into a per-PE scratchpad of \p SpadWords plus
  /// a shared SRAM of \p SramWords, each priced by Eq. 4.
  static Hierarchy withScratchpad(const ArchConfig &Arch,
                                  const TechParams &Tech,
                                  std::int64_t SpadWords,
                                  std::int64_t SramWords);
};

/// Parses a textual machine description into a Hierarchy. Line-oriented,
/// '#' comments, levels inner to outer:
///
///   pes 256
///   mac-pj 2.2
///   fanout 1
///   level RegisterFile 64 0.58 1e9     # name capacity access-pj bandwidth
///   level SRAM 16384 8.3 160
///   level DRAM - 128.0 16              # '-' = unbounded (outermost)
///
/// Returns the parsed hierarchy, or a ParseError Status with a
/// line-numbered message on malformed input: unknown keys, missing or
/// trailing fields, malformed or non-positive integers, duplicate level
/// names, an unbounded capacity ('-') anywhere but the outermost level,
/// or a hierarchy that fails validate().
Expected<Hierarchy> parseHierarchy(const std::string &Text);

} // namespace thistle

#endif // THISTLE_MULTILEVEL_HIERARCHY_H

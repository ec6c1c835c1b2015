//===- thistle/Job.h - One optimization request, run end to end -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one path from a request to a run, a report and an exit code:
/// thistle-opt's flag parser and thistle-serve's query parser each only
/// build a Job, and runJob validates it, dispatches it to optimizeLayer
/// or optimizeNetwork, and maps the outcome into the
/// tool-agnostic RunReport sections and the exit code of
/// docs/THISTLE_OPT.md, so a served answer is the thistle-opt answer by
/// construction. Printing stays with the front end.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_JOB_H
#define THISTLE_THISTLE_JOB_H

#include "ir/Builders.h"
#include "support/RunReport.h"
#include "thistle/Network.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace thistle {

class GpSolutionCache;
class ThreadPool;

enum class JobKind {
  Layer,   ///< One layer (Job::Layers holds exactly one).
  Network, ///< optimizeNetwork: shape dedup, one architecture.
  /// Every layer on its own through optimizeLayer: per-layer co-design
  /// (Fig. 5), which the network driver's one architecture cannot say.
  Pipeline,
};

/// The hierarchy name of the fixed reg/SRAM/DRAM machine.
inline constexpr const char *ClassicHierarchy = "classic3";

/// One optimization request, resolved.
struct Job {
  JobKind Kind = JobKind::Layer;
  std::vector<ConvLayer> Layers;
  /// The report's workload name: the layer's name, "network:<name>" or
  /// "pipeline:<name>".
  std::string Name;
  ThistleOptions Options;
  ArchConfig Arch = eyerissArch();
  double AreaBudget = 0.0; ///< Eq. 5 budget (um^2); see resolveAreaBudget.
  /// ClassicHierarchy, "spad4" or a hierarchy file (docs/HIERARCHY.md);
  /// any other machine runs one layer, in dataflow mode, through
  /// optimizeLayer's Hierarchy overload.
  std::string HierarchySpec = ClassicHierarchy;
  /// A network's 0-based task-grid slice (NetworkOptions::ShardIndex).
  std::size_t ShardIndex = 0, ShardCount = 1;
};

/// In CoDesign mode, an unset (0) area budget becomes the Eyeriss area,
/// the paper's equal-area comparison.
void resolveAreaBudget(Job &J);

/// The exit-2 text runJob refuses \p J with before any work (a hierarchy
/// on a workload or mode it cannot run), or empty. A front end that sets
/// up state first, such as a cache directory, asks before it does.
std::string validateJob(const Job &J);

/// The report header of \p J: workload, mode, objective, hierarchy,
/// worker count (\p Pool's when given) and cost-model backend.
RunReport jobReport(const Job &J, const ThreadPool *Pool);

struct JobResult {
  /// 0 clean, 1 degraded, 2 invalid job, 3 no design (docs/THISTLE_OPT.md).
  int ExitCode = 0;
  std::string Error; ///< The exit-2 diagnostic, without "error: ".
  RunReport Report;  ///< Header, result, sweep and network sections.
  /// The raw outcome a front end prints from, by kind; each one's sweep
  /// report has moved into Report.Sweep. On a non-classic machine the
  /// layer's design is Layer.Multi.
  ThistleResult Layer;
  std::optional<Hierarchy> Machine; ///< A non-classic machine, resolved.
  NetworkResult Network;
};

/// Receives each pipeline layer's result as soon as it is solved.
using PipelineStageFn =
    std::function<void(const ConvLayer &, const ThistleResult &)>;

/// Runs \p J, borrowing \p Cache and \p Pool when given (both optional;
/// results are bit-identical either way). A pipeline hands every layer's
/// result to \p OnStage, up to a layer refused with exit 2.
JobResult runJob(const Job &J, GpSolutionCache *Cache, ThreadPool *Pool,
                 const PipelineStageFn &OnStage = nullptr);

} // namespace thistle

#endif // THISTLE_THISTLE_JOB_H

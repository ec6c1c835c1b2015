//===- support/SweepReport.h - Per-sweep fault accounting -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured accounting of one design-space sweep (the perm-class pair
/// sweep, at any hierarchy depth): how many tasks solved cleanly,
/// solved only after solver retries, were accepted degraded (feasible
/// but not converged), were genuinely infeasible, failed outright, or
/// were skipped by an expired deadline — plus one incident record per
/// non-clean task naming it (one for all the tasks a policy dropped). A
/// sweep that loses tasks degrades to the best of the completed ones and
/// reports what it lost here, instead of aborting the run.
///
/// Determinism: shard-local reports are merged in shard order over
/// contiguous ascending task ranges, so counts and the incident list are
/// in global task order and bit-identical at every worker count (when no
/// wall-clock deadline fires).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_SWEEPREPORT_H
#define THISTLE_SUPPORT_SWEEPREPORT_H

#include <cstddef>
#include <string>
#include <vector>

namespace thistle {

/// Outcome of one sweep task (one GP).
enum class TaskOutcome {
  Solved,     ///< Converged, rounded, evaluated.
  Degraded,   ///< Feasible but not converged; best iterate accepted.
  Infeasible, ///< The GP has no feasible point (a model property).
  Failed,     ///< Numerical breakdown / fault / exception; no result.
  Skipped,    ///< Not attempted: deadline or budget expired.
};

const char *taskOutcomeName(TaskOutcome Outcome);

/// One non-clean task, in sweep order. A policy skip of several tasks
/// is one incident whose coordinates are its first and last task index.
struct SweepIncident {
  std::size_t Index = 0;  ///< Task index in the fixed sweep plan.
  std::size_t A = 0;      ///< First coordinate (level-1 / PE class).
  std::size_t B = 0;      ///< Second coordinate (outermost / DRAM class).
  TaskOutcome Outcome = TaskOutcome::Failed;
  unsigned Attempts = 0;  ///< Solver attempts spent on the task.
  std::string Detail;     ///< Failure reason / diagnostic.
};

/// Solved/retried/failed/skipped accounting for one sweep.
struct SweepReport {
  unsigned Solved = 0;     ///< Clean first-attempt or retried successes.
  unsigned Retried = 0;    ///< Tasks that needed more than one attempt.
  unsigned Degraded = 0;
  unsigned Infeasible = 0;
  unsigned Failed = 0;
  unsigned Skipped = 0;
  /// The subset of Skipped dropped by an explicit caller policy (e.g.
  /// the MaxPermClassPairs pair cap) rather than an expired deadline.
  /// A policy skip is a requested truncation, so it does not make the
  /// sweep unclean; it is still recorded (count + incident) so outcome
  /// counts sum to the full task universe.
  unsigned SkippedByPolicy = 0;
  bool DeadlineExpired = false;
  /// Every non-Solved task (Degraded/Infeasible/Failed/Skipped), in
  /// ascending task order after the shard merge.
  std::vector<SweepIncident> Incidents;

  /// Tasks accounted for (every outcome).
  unsigned total() const {
    return Solved + Degraded + Infeasible + Failed + Skipped;
  }
  /// True when every task solved cleanly and no deadline fired. Policy
  /// skips are the caller's own truncation request, so they do not make
  /// a sweep unclean; only unplanned losses (degradations, failures,
  /// deadline skips) do.
  bool clean() const {
    return Degraded == 0 && Failed == 0 && Skipped == SkippedByPolicy &&
           !DeadlineExpired;
  }

  /// Records one task outcome (and its incident when non-clean).
  void record(TaskOutcome Outcome, std::size_t Index, std::size_t A,
              std::size_t B, unsigned Attempts, std::string Detail);

  /// Records \p Count tasks dropped by a caller policy (the pair cap) as
  /// one Skipped incident; each of them counts into Skipped and
  /// SkippedByPolicy.
  void recordPolicySkip(std::size_t Index, std::size_t A, std::size_t B,
                        std::string Detail, unsigned Count = 1);

  /// Appends \p Next (the report of the next shard in ascending task
  /// order) to this one.
  void merge(SweepReport &&Next);

  /// Multi-line human-readable summary: one count line, then one line
  /// per incident ("  pair 7 (2,1): failed after 3 attempts: ...").
  std::string toString(const char *TaskNoun = "task") const;
};

} // namespace thistle

#endif // THISTLE_SUPPORT_SWEEPREPORT_H

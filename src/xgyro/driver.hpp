// Job execution: every simulated HPC job runs through one solver rank body.
// A CGYRO run is the k = 1 case on the classic layout; an XGYRO ensemble
// runs its k members on the shared-cmat layout. The body builds the layout,
// initializes, restores the newest snapshot when resuming, steps the report
// intervals with optional periodic snapshots, and collects each member's
// diagnostics. run_cgyro_job / run_xgyro_job are the entry points the
// benchmarks and examples use to reproduce the paper's measurements; the
// campaign layer's elastic executor wraps the same body in its recovery loop.
#pragma once

#include <cstdint>
#include <vector>

#include "gyro/simulation.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::xgyro {

struct JobOptions {
  int n_report_intervals = 1;  ///< reporting steps to simulate
  gyro::Mode mode = gyro::Mode::kModel;
  bool enable_trace = false;
  bool enable_traffic = false;
  /// Deterministic fault-injection plan forwarded to the runtime
  /// (default: inactive). See mpi::FaultPlan::parse for the spec grammar.
  mpi::FaultPlan faults;
  /// Per-collective invariant checking (member agreement); on by default.
  bool check_invariants = true;
  /// How the ensemble layout maps members onto shared tensors (the CGYRO
  /// layout has a single member and ignores it).
  SharingPolicy sharing = SharingPolicy::kSingleGroup;
  /// Periodic elastic snapshots (see src/checkpoint): empty disables. Real
  /// mode only — model mode carries no restorable state.
  std::string checkpoint_dir;
  /// Report intervals between snapshots (the final interval is always
  /// snapshotted so a completed job leaves a resumable image).
  int checkpoint_every = 1;
  /// Restore from the latest valid snapshot in checkpoint_dir before
  /// stepping; already-completed intervals are skipped.
  bool resume = false;
  /// Collective algorithm decision table consulted by every collective
  /// entered with CollAlg::kAuto (nullptr = built-in tuned table). Use
  /// mpi::CollSelector::legacy() for the pre-selector ablation baseline, or
  /// a table loaded via telemetry::load_coll_table.
  std::shared_ptr<const mpi::CollSelector> coll_selector;
};

/// Communicator layout of a job.
enum class JobLayout {
  kCgyro,     ///< classic CGYRO: a single member on its own communicators
  kEnsemble,  ///< XGYRO: k members sharing cmat over all k·pv collision ranks
};

struct JobResult {
  mpi::RunResult run;
  std::vector<gyro::Diagnostics> diagnostics;  ///< per batch member
  std::int64_t resumed_interval = 0;  ///< interval restored from (0 = fresh)
  std::uint64_t snapshots_committed = 0;
  std::uint64_t snapshots_rejected = 0;  ///< corrupt snapshots skipped
};

/// The solver rank body: run `batch` on batch.n_sims() × ranks_per_sim
/// ranks of `machine` in `layout` (kCgyro needs a single member). Runtime
/// failures (RankFailure, DeadlockError) propagate unchanged. `out` is
/// filled in place — resumed_interval before stepping, run and diagnostics
/// on success — and the snapshot counters are added to, also when the run
/// throws, so a retry loop keeps the accounting of its failed attempts.
void execute_job(const EnsembleInput& batch, JobLayout layout,
                 const net::MachineSpec& machine, int ranks_per_sim,
                 const JobOptions& options, JobResult& out);

/// One CGYRO job: a single simulation on `nranks` ranks of `machine`
/// (paper baseline: each nl03c variant runs alone on all 32 nodes).
mpi::RunResult run_cgyro_job(const gyro::Input& input,
                             const net::MachineSpec& machine, int nranks,
                             const JobOptions& options = {});

/// One XGYRO job: the whole ensemble at once, `ranks_per_sim` each, sharing
/// cmat across all k·pv collision ranks.
mpi::RunResult run_xgyro_job(const EnsembleInput& ensemble,
                             const net::MachineSpec& machine,
                             int ranks_per_sim, const JobOptions& options = {});

/// Phase names reported by the solver, in presentation order.
const std::vector<std::string>& solver_phases();

/// Sum over phases of max-over-ranks time, excluding "init" — the
/// "seconds per reporting step" quantity of the paper's Fig. 2.
double report_step_seconds(const mpi::RunResult& result);

/// Same, restricted to one phase.
double phase_seconds(const mpi::RunResult& result, const std::string& phase);

}  // namespace xg::xgyro

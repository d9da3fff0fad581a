#include "xgyro/driver.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>

#include "checkpoint/checkpoint.hpp"
#include "util/error.hpp"

namespace xg::xgyro {

const std::vector<std::string>& solver_phases() {
  static const std::vector<std::string> kPhases{
      "str", "str_comm", "nl", "nl_comm", "coll", "coll_comm", "report"};
  return kPhases;
}

void execute_job(const EnsembleInput& batch, JobLayout layout,
                 const net::MachineSpec& machine, int ranks_per_sim,
                 const JobOptions& options, JobResult& out) {
  const int k = batch.n_sims();
  const std::int64_t n_intervals = options.n_report_intervals;
  XG_REQUIRE(k >= 1, "execute_job: empty batch");
  XG_REQUIRE(layout == JobLayout::kEnsemble || k == 1,
             "execute_job: the CGYRO layout runs a single member");
  XG_REQUIRE(n_intervals >= 1,
             "execute_job: need at least one report interval");
  // The classic CGYRO layout has no ensemble-wide collision communicator.
  const auto decomp = gyro::Decomposition::choose(
      batch.members.front(), ranks_per_sim,
      layout == JobLayout::kCgyro ? 1 : k);
  const int nranks = k * ranks_per_sim;

  // Snapshot setup: open the writer, and when resuming locate and parse the
  // newest valid snapshot.
  std::unique_ptr<ckpt::CheckpointWriter> writer;
  std::optional<ckpt::SnapshotRef> snapshot;
  ckpt::Manifest manifest;
  out.resumed_interval = 0;
  if (!options.checkpoint_dir.empty()) {
    XG_REQUIRE(options.mode == gyro::Mode::kReal,
               "checkpointing requires real mode");
    XG_REQUIRE(options.checkpoint_every >= 1,
               "checkpoint_every must be >= 1");
    writer = std::make_unique<ckpt::CheckpointWriter>(options.checkpoint_dir,
                                                      nranks);
    if (options.resume) {
      auto scan = ckpt::find_latest_valid(options.checkpoint_dir);
      out.snapshots_rejected += scan.rejected.size();
      if (scan.latest_valid.has_value()) {
        snapshot = scan.latest_valid;
        manifest = ckpt::load_manifest(snapshot->path);
        out.resumed_interval = std::min(manifest.interval, n_intervals);
      }
    }
  }
  const std::int64_t start_interval = out.resumed_interval;

  mpi::RuntimeOptions ropts;
  ropts.enable_trace = options.enable_trace;
  ropts.enable_traffic = options.enable_traffic;
  ropts.faults = options.faults;
  ropts.check_invariants = options.check_invariants;
  ropts.coll_selector = options.coll_selector;

  std::vector<gyro::Diagnostics> diags(static_cast<size_t>(k));
  std::mutex mu;
  const auto rank_body = [&](mpi::Proc& proc) {
    mpi::ScopedSpan job_span(
        proc, layout == JobLayout::kCgyro ? "cgyro.job" : "xgyro.job");
    std::unique_ptr<gyro::Simulation> cgyro_sim;
    std::unique_ptr<EnsembleDriver> driver;
    gyro::Simulation* sim = nullptr;
    int member = 0;
    if (layout == JobLayout::kCgyro) {
      auto comms = gyro::make_cgyro_layout(proc.world(), decomp);
      cgyro_sim = std::make_unique<gyro::Simulation>(
          batch.members.front(), decomp, std::move(comms), proc, options.mode);
      cgyro_sim->initialize();
      sim = cgyro_sim.get();
    } else {
      driver = std::make_unique<EnsembleDriver>(batch, decomp, proc,
                                                options.mode, options.sharing);
      driver->initialize();
      sim = &driver->simulation();
      member = driver->sim_index();
    }
    if (snapshot.has_value()) {
      mpi::ScopedSpan span(proc, "checkpoint.restore");
      ckpt::restore_rank(snapshot->path, manifest, *sim, member);
    }
    gyro::Diagnostics d;
    if (start_interval >= n_intervals) {
      // The snapshot already covers the whole run; recompute the reporting
      // diagnostics from the restored state.
      d = sim->diagnostics();
    }
    for (std::int64_t i = start_interval; i < n_intervals; ++i) {
      d = sim->advance_report_interval();
      if (writer != nullptr && ((i + 1) % options.checkpoint_every == 0 ||
                                i + 1 == n_intervals)) {
        mpi::ScopedSpan span(proc, "checkpoint.write");
        ckpt::snapshot_rank(*writer, i + 1, *sim, member);
      }
    }
    if (proc.world_rank() % decomp.nranks() == 0) {
      const std::scoped_lock lock(mu);
      diags[static_cast<size_t>(member)] = d;
    }
  };

  const auto count_snapshots = [&] {
    if (writer != nullptr) {
      out.snapshots_committed += writer->snapshots_committed();
    }
  };
  try {
    out.run = mpi::run_simulation(machine, nranks, rank_body, ropts);
  } catch (...) {
    count_snapshots();
    throw;
  }
  count_snapshots();
  out.diagnostics = std::move(diags);
}

mpi::RunResult run_cgyro_job(const gyro::Input& input,
                             const net::MachineSpec& machine, int nranks,
                             const JobOptions& options) {
  JobResult out;
  execute_job(EnsembleInput{{input}}, JobLayout::kCgyro, machine, nranks,
              options, out);
  return std::move(out.run);
}

mpi::RunResult run_xgyro_job(const EnsembleInput& ensemble,
                             const net::MachineSpec& machine,
                             int ranks_per_sim, const JobOptions& options) {
  JobResult out;
  execute_job(ensemble, JobLayout::kEnsemble, machine, ranks_per_sim, options,
              out);
  return std::move(out.run);
}

double report_step_seconds(const mpi::RunResult& result) {
  double total = 0.0;
  for (const auto& phase : solver_phases()) {
    total += result.phase_max_time(phase);
  }
  return total;
}

double phase_seconds(const mpi::RunResult& result, const std::string& phase) {
  return result.phase_max_time(phase);
}

}  // namespace xg::xgyro

// Checkpoint overhead bench: how much does periodic elastic snapshotting
// cost, and how small does skipping cmat keep the snapshots?
//
// Runs the same k-member ensemble twice — without checkpointing and with a
// snapshot every reporting interval — and reports the wall-clock overhead,
// per-snapshot bytes on disk, and the cmat bytes that would have been
// written had the snapshot included the shared tensor (the paper's point:
// cmat dominates memory, and because it is rebuilt from inputs it never
// needs to hit the disk).
//
// --smoke exits nonzero unless every snapshot committed, the newest one
// validates, and the state actually excludes cmat (snapshot bytes well
// under the cmat footprint).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "campaign/campaign.hpp"
#include "checkpoint/checkpoint.hpp"
#include "gyro/simulation.hpp"
#include "simnet/machine.hpp"
#include "xgyro/ensemble.hpp"

int main(int argc, char** argv) {
  using namespace xg;
  namespace fs = std::filesystem;
  bool smoke = false;
  int intervals = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--intervals") == 0 && i + 1 < argc) {
      intervals = std::atoi(argv[i + 1]);
    }
  }

  const int k = 4, ranks_per_sim = 2;
  gyro::Input base = gyro::Input::small_test(2);
  base.n_steps_per_report = 10;
  const auto batch = xgyro::EnsembleInput::sweep(
      base, k, [](gyro::Input& in, int i) {
        in.species[0].a_ln_t = 2.0 + 0.25 * i;
        in.tag = "ck" + std::to_string(i);
      });
  const auto machine = net::testbox(1, k * ranks_per_sim);

  const auto wall = [] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };

  xgyro::JobOptions job;
  job.n_report_intervals = intervals;
  job.mode = gyro::Mode::kReal;
  double t0 = wall();
  const auto plain =
      campaign::run_job_elastic(batch, machine, ranks_per_sim, job);
  const double plain_ms = wall() - t0;

  const fs::path dir = fs::temp_directory_path() / "xg_ckpt_overhead";
  fs::remove_all(dir);
  job.checkpoint_dir = dir.string();
  t0 = wall();
  const auto ckpt_run =
      campaign::run_job_elastic(batch, machine, ranks_per_sim, job);
  const double ckpt_ms = wall() - t0;

  // Bytes of the newest snapshot vs what checkpointing cmat would cost.
  std::uintmax_t snap_bytes = 0;
  const auto scan = ckpt::find_latest_valid(dir.string());
  if (scan.latest_valid.has_value()) {
    for (const auto& e :
         fs::recursive_directory_iterator(scan.latest_valid->path)) {
      if (e.is_regular_file()) snap_bytes += e.file_size();
    }
  }
  // Shared cmat: one (nv x nv) complex block per (ic, it) pair, counted once
  // for the whole ensemble (the sharing the paper is about).
  const std::uintmax_t cmat_bytes =
      static_cast<std::uintmax_t>(base.nv()) * base.nv() * base.nc() *
      base.nt() * sizeof(std::complex<double>);

  std::printf("checkpoint overhead (k=%d, %d ranks/sim, %d intervals)\n", k,
              ranks_per_sim, intervals);
  std::printf("  plain run          : %9.1f ms wall\n", plain_ms);
  std::printf("  checkpointed run   : %9.1f ms wall (+%.1f%%)\n", ckpt_ms,
              plain_ms > 0 ? 100.0 * (ckpt_ms - plain_ms) / plain_ms : 0.0);
  std::printf("  snapshots committed: %9llu\n",
              static_cast<unsigned long long>(ckpt_run.snapshots_committed));
  std::printf("  snapshot size      : %9.1f KiB\n", snap_bytes / 1024.0);
  std::printf("  cmat if included   : %9.1f KiB (excluded: rebuilt from "
              "inputs)\n",
              cmat_bytes / 1024.0);

  int rc = 0;
  if (smoke) {
    const bool all_committed =
        ckpt_run.snapshots_committed == static_cast<std::uint64_t>(intervals);
    const bool valid = scan.latest_valid.has_value();
    const bool physics_same =
        plain.diagnostics.size() == ckpt_run.diagnostics.size() &&
        plain.diagnostics[0].phi_rms == ckpt_run.diagnostics[0].phi_rms;
    const bool small = snap_bytes > 0 && snap_bytes < cmat_bytes;
    rc = (all_committed && valid && physics_same && small) ? 0 : 1;
    std::printf("smoke: committed=%d valid=%d physics_same=%d "
                "cmat_excluded=%d -> %s\n",
                all_committed, valid, physics_same, small,
                rc == 0 ? "PASS" : "FAIL");
  }
  fs::remove_all(dir);
  return rc;
}

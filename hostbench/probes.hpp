// Layer probes: host rates of single layers at the shapes the workloads
// use. Each probe follows one measurement idiom — report the timer
// resolution, warm up, then run measurement rounds until the running mean
// of the per-round time settles — so a rate is never read off one sample.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "gyro/input.hpp"
#include "simnet/machine.hpp"

namespace hb {

/// Smallest nonzero step of the monotonic clock, measured.
double timer_resolution_s();

struct ProbeResult {
  double per_s = 0.0;        ///< operations per host second
  double round_s = 0.0;      ///< settled mean seconds per round
  int rounds = 0;
  bool settled = false;      ///< running mean moved < 1% on the last round
};

/// `round` performs `ops_per_round` operations and returns the host
/// seconds they took (it may time itself, e.g. inside a rank body).
ProbeResult settle(const std::string& name, double ops_per_round,
                   const std::function<double()>& round);

/// AllReduce instances per second among `participants` ranks of `machine`
/// on virtual payloads of `bytes` (the DES path of a model-mode run).
ProbeResult probe_allreduce(const xg::net::MachineSpec& machine, int participants,
                            std::uint64_t bytes);
/// AllToAll instances per second, `bytes_per_pair` per destination.
ProbeResult probe_alltoall(const xg::net::MachineSpec& machine, int participants,
                           std::uint64_t bytes_per_pair);
/// Empty-body run_simulation calls per second at `nranks` ranks: the
/// spawn + join cost every DES run pays.
ProbeResult probe_spawn_join(const xg::net::MachineSpec& machine, int nranks);

/// Real-data str<->coll transposes over a k-member, one-rank-per-member
/// collision communicator. `per_s` is in GiB of state moved per second.
ProbeResult probe_transpose(const xg::gyro::Input& input, int k);
/// cmat cells built per second (LU-based implicit step matrix, nv×nv).
ProbeResult probe_cmat_build(const xg::gyro::Input& input);
/// Dense LU factor+solve calls per second at size nv.
ProbeResult probe_lu_solve(int nv);
/// Batched collision applies (one cell, k right-hand sides) per second
/// over `cells` resident cells.
ProbeResult probe_cmat_apply(int nv, int cells, int k);
/// Complex FFTs (forward or inverse) of length `n` per second.
ProbeResult probe_fft(int n);
/// perfmodel::estimate_phases calls per second over the service stream's
/// small / medium / wide request shapes on `machine`.
ProbeResult probe_estimate_phases(const xg::net::MachineSpec& machine);

}  // namespace hb

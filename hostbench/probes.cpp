#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <vector>

#include "collision/operator.hpp"
#include "collision/tensor.hpp"
#include "common.hpp"
#include "fft/fft.hpp"
#include "gyro/decomposition.hpp"
#include "la/lu.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "tensor/dist_transpose.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace hb {

namespace {

using xg::collision::cplx;

constexpr int kWarmupRounds = 2;
constexpr int kMinRounds = 5;
constexpr int kMaxRounds = 40;
constexpr double kSettleTolerance = 0.01;
constexpr double kProbeBudgetS = 1.5;

/// Times `body` on world rank 0 between two barriers, so thread spawn and
/// join stay outside the measured interval.
double timed_on_rank0(const xg::net::MachineSpec& machine, int nranks,
                      const std::function<void(xg::mpi::Comm&)>& body) {
  double seconds = 0.0;
  xg::mpi::run_simulation(machine, nranks, [&](xg::mpi::Proc& proc) {
    auto world = proc.world();
    world.barrier();
    const double t0 = wall_now();
    body(world);
    world.barrier();
    if (proc.world_rank() == 0) seconds = wall_now() - t0;
  });
  return seconds;
}

xg::la::MatrixD diagonally_dominant(int n, std::uint64_t seed) {
  xg::Rng rng(seed);
  xg::la::MatrixD a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

}  // namespace

double timer_resolution_s() {
  double best = 1.0;
  for (int i = 0; i < 64; ++i) {
    const double t0 = wall_now();
    double t1 = wall_now();
    while (t1 == t0) t1 = wall_now();
    best = std::min(best, t1 - t0);
  }
  return best;
}

ProbeResult settle(const std::string& name, double ops_per_round,
                   const std::function<double()>& round) {
  const double resolution = timer_resolution_s();
  for (int i = 0; i < kWarmupRounds; ++i) (void)round();
  ProbeResult r;
  double sum = 0.0;
  double prev_mean = 0.0;
  const double t_start = wall_now();
  while (r.rounds < kMaxRounds) {
    sum += round();
    ++r.rounds;
    const double mean = sum / r.rounds;
    if (r.rounds >= kMinRounds && mean > 0.0 &&
        std::fabs(mean - prev_mean) < kSettleTolerance * mean) {
      r.settled = true;
      break;
    }
    prev_mean = mean;
    if (r.rounds >= kMinRounds && wall_now() - t_start > kProbeBudgetS) break;
  }
  r.round_s = sum / r.rounds;
  r.per_s = r.round_s > 0.0 ? ops_per_round / r.round_s : 0.0;
  std::printf("probe %-26s timer resolution %.1e s, warmup %d, %2d rounds of "
              "%.4g s, %s\n",
              name.c_str(), resolution, kWarmupRounds, r.rounds, r.round_s,
              r.settled ? "settled" : "NOT settled (budget reached)");
  return r;
}

ProbeResult probe_allreduce(const xg::net::MachineSpec& machine,
                            int participants, std::uint64_t bytes) {
  constexpr int kPerRound = 40;
  return settle("simmpi.allreduce", kPerRound, [&] {
    return timed_on_rank0(machine, participants, [&](xg::mpi::Comm& world) {
      for (int i = 0; i < kPerRound; ++i) world.allreduce_virtual(bytes);
    });
  });
}

ProbeResult probe_alltoall(const xg::net::MachineSpec& machine,
                           int participants, std::uint64_t bytes_per_pair) {
  constexpr int kPerRound = 10;
  return settle("simmpi.alltoall", kPerRound, [&] {
    return timed_on_rank0(machine, participants, [&](xg::mpi::Comm& world) {
      for (int i = 0; i < kPerRound; ++i) world.alltoall_virtual(bytes_per_pair);
    });
  });
}

ProbeResult probe_spawn_join(const xg::net::MachineSpec& machine, int nranks) {
  constexpr int kPerRound = 10;
  return settle("simmpi.spawn_join", kPerRound, [&] {
    const double t0 = wall_now();
    for (int i = 0; i < kPerRound; ++i) {
      (void)xg::mpi::run_simulation(machine, nranks, [](xg::mpi::Proc&) {});
    }
    return wall_now() - t0;
  });
}

ProbeResult probe_transpose(const xg::gyro::Input& input, int k) {
  constexpr int kPerRound = 4;
  const int nc = input.nc();
  const int nv = input.nv();
  const int nt = input.nt();
  // Each round-trip moves every rank's whole state out and back.
  const double gib_per_round = 2.0 * kPerRound * k *
                               static_cast<double>(nv) * nc * nt *
                               sizeof(cplx) / (1024.0 * 1024.0 * 1024.0);
  const auto machine = xg::net::testbox(1, k);
  return settle("tensor.transpose", gib_per_round, [&] {
    double seconds = 0.0;
    xg::mpi::run_simulation(machine, k, [&](xg::mpi::Proc& proc) {
      auto world = proc.world();
      xg::tensor::EnsembleTransposer<cplx> tr(k, 1, nc, nv, nt);
      auto str = tr.make_str_tensor();
      auto coll = tr.make_coll_tensors();
      auto data = str.data();
      for (size_t i = 0; i < data.size(); ++i) {
        data[i] = cplx(static_cast<double>(i % 97), proc.world_rank());
      }
      world.barrier();
      const double t0 = wall_now();
      for (int i = 0; i < kPerRound; ++i) {
        tr.to_coll(world, str, coll);
        tr.to_str(world, coll, str);
      }
      world.barrier();
      if (proc.world_rank() == 0) seconds = wall_now() - t0;
    });
    return seconds;
  });
}

ProbeResult probe_cmat_build(const xg::gyro::Input& input) {
  constexpr int kPerRound = 4;
  const auto grid = input.make_velocity_grid();
  const auto scattering =
      xg::collision::build_scattering_operator(grid, input.collision);
  const xg::collision::CmatRecipe recipe{input.collision, input.dt};
  int cell = 0;
  return settle("collision.build", kPerRound, [&] {
    const double t0 = wall_now();
    for (int i = 0; i < kPerRound; ++i, ++cell) {
      const auto a = recipe.build_cell(grid, scattering, 0.01 * (cell % 64));
      if (a.rows() != grid.nv()) std::printf("probe: bad cell shape\n");
    }
    return wall_now() - t0;
  });
}

ProbeResult probe_lu_solve(int nv) {
  constexpr int kPerRound = 8;
  const auto a = diagonally_dominant(nv, 7);
  std::vector<double> b(static_cast<size_t>(nv), 1.0);
  double sink = 0.0;
  auto r = settle("la.lu_solve", kPerRound, [&] {
    const double t0 = wall_now();
    for (int i = 0; i < kPerRound; ++i) sink += xg::la::lu_solve(a, b)[0];
    return wall_now() - t0;
  });
  if (!std::isfinite(sink)) std::printf("probe: lu_solve diverged\n");
  return r;
}

ProbeResult probe_cmat_apply(int nv, int cells, int k) {
  xg::collision::CollisionTensor cmat(nv, cells);
  const auto a = diagonally_dominant(nv, 11);
  for (int c = 0; c < cells; ++c) cmat.set_cell(c, a);
  std::vector<cplx> x(static_cast<size_t>(nv) * k, cplx(1.0, -0.5));
  std::vector<cplx> y(x.size());
  double sink = 0.0;
  auto r = settle("collision.apply", cells, [&] {
    const double t0 = wall_now();
    for (int c = 0; c < cells; ++c) {
      cmat.apply_batch(c, x, y, k);
      sink += y[0].real();
    }
    return wall_now() - t0;
  });
  if (!std::isfinite(sink)) std::printf("probe: apply diverged\n");
  return r;
}

ProbeResult probe_fft(int n) {
  constexpr int kLines = 4096;
  const xg::fft::Plan plan(static_cast<size_t>(n));
  std::vector<cplx> lines(static_cast<size_t>(kLines) * n, cplx(0.25, 0.5));
  return settle("fft.transform", 2.0 * kLines, [&] {
    const double t0 = wall_now();
    for (int l = 0; l < kLines; ++l) {
      std::span<cplx> line(lines.data() + static_cast<size_t>(l) * n,
                           static_cast<size_t>(n));
      plan.forward(line);
      plan.inverse(line);
    }
    return wall_now() - t0;
  });
}

ProbeResult probe_estimate_phases(const xg::net::MachineSpec& machine) {
  constexpr int kPerRound = 5000;
  const StreamShapes shapes = stream_shapes();
  const struct {
    const xg::gyro::Input* input;
    int ranks;
  } cases[] = {{&shapes.small, machine.ranks_per_node},
               {&shapes.medium, machine.ranks_per_node},
               {&shapes.wide, 2 * machine.ranks_per_node}};
  std::vector<xg::gyro::Decomposition> decomps;
  for (const auto& c : cases) {
    decomps.push_back(xg::gyro::Decomposition::choose(*c.input, c.ranks));
  }
  double sink = 0.0;
  auto r = settle("perfmodel.estimate_phases", 3.0 * kPerRound, [&] {
    const double t0 = wall_now();
    for (int i = 0; i < kPerRound; ++i) {
      for (size_t c = 0; c < decomps.size(); ++c) {
        sink += xg::perfmodel::estimate_phases(*cases[c].input, decomps[c], 1,
                                               machine)
                    .total();
      }
    }
    return wall_now() - t0;
  });
  if (!(sink > 0.0)) std::printf("probe: estimate_phases returned zero\n");
  return r;
}

}  // namespace hb

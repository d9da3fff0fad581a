// Quickstart: run one small CGYRO-skeleton simulation on a simulated
// 4-rank machine, with real physics data, and print diagnostics plus the
// per-phase timing table.
//
//   $ ./examples/quickstart
//
// What happens:
//  1. A Frontier-like virtual machine is described (simnet).
//  2. Four rank fibers are started (simmpi); each builds its slice of the
//     velocity/configuration grid, the collisional constant tensor (cmat),
//     and a random initial perturbation.
//  3. The solver advances two reporting intervals: RK4 streaming with
//     AllReduce field solves, then the implicit collision step through the
//     str↔coll AllToAll transpose.
//  4. Diagnostics and the CGYRO-style timing breakdown are printed.
#include <cstdio>

#include "gyro/simulation.hpp"
#include "simnet/machine.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

int main() {
  using namespace xg;

  // A small but non-trivial case: 2 species (ions + light electrons),
  // 4x8 velocity grid, 8x4 configuration grid, 4 toroidal modes.
  gyro::Input input = gyro::Input::small_test(2);
  input.n_radial = 8;
  input.n_steps_per_report = 10;
  input.tag = "quickstart";

  const int nranks = 4;
  const auto machine = net::frontier_like(1);
  const auto decomp = gyro::Decomposition::choose(input, nranks);
  std::printf("quickstart: %d ranks on %s (pv=%d, pt=%d)\n", nranks,
              machine.name.c_str(), decomp.pv, decomp.pt);

  gyro::Diagnostics diag;
  std::uint64_t cmat_bytes = 0;
  const auto result = mpi::run_simulation(machine, nranks, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), decomp);
    gyro::Simulation sim(input, decomp, std::move(layout), p, gyro::Mode::kReal);
    sim.initialize();
    for (int i = 0; i < 2; ++i) diag = sim.advance_report_interval();
    if (p.world_rank() == 0) cmat_bytes = sim.cmat().bytes();
  });

  std::printf("\nafter %d steps (t = %.2f):\n", diag.steps, diag.time);
  std::printf("  phi_rms     = %.6e\n", diag.phi_rms);
  std::printf("  flux proxy  = %.6e\n", diag.flux_proxy);
  std::printf("  cmat slice  = %s per rank\n\n",
              human_bytes(static_cast<double>(cmat_bytes)).c_str());

  std::printf("per-phase timing (virtual seconds on the simulated machine):\n%s\n",
              gyro::format_timing(result, xgyro::solver_phases()).c_str());

  std::printf("memory inventory per rank:\n%s",
              gyro::Simulation::memory_inventory(input, decomp, 1).table().c_str());
  return 0;
}

// Capacity planner: answer the deployment question the paper poses —
// given a campaign of simulations and a node budget, is it cheaper to run
// them sequentially with CGYRO or together as an XGYRO ensemble?
//
//   $ ./examples/capacity_planner [n_sims] [nodes]
//
// Uses the perfmodel estimate (instant: collectives are priced by replaying
// their schedules, no rank threads; the fig2_breakdown bench runs the
// discrete-event simulation for the same question).
#include <cstdio>
#include <cstdlib>

#include "perfmodel/perfmodel.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace xg;
  const int n_sims = argc > 1 ? std::atoi(argv[1]) : 8;
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 32;

  const auto input = gyro::Input::nl03c_like();
  const auto machine = perfmodel::nl03c_machine(nodes);

  std::printf("campaign: %d nl03c-like simulations, %d %s nodes (%d ranks)\n\n",
              n_sims, nodes, machine.name.c_str(), machine.total_ranks());

  // Baseline: each simulation alone on the full allocation, sequentially.
  double cgyro_campaign = -1.0;
  try {
    const auto cg = perfmodel::plan_cgyro(input, machine);
    std::printf("%s\n", cg.describe().c_str());
    if (cg.fit.fits) {
      cgyro_campaign = n_sims * cg.per_report.total();
      std::printf("  -> CGYRO campaign: %d sequential jobs, %.3f s per "
                  "reporting step total\n\n",
                  n_sims, cgyro_campaign);
    } else {
      std::printf("  -> does not fit; a single CGYRO simulation needs >= %d "
                  "nodes\n\n",
                  perfmodel::min_feasible_nodes_cgyro(input, 1024));
    }
  } catch (const Error& e) {
    std::printf("CGYRO: %s\n\n", e.what());
  }

  // XGYRO ensembles of every size dividing the campaign.
  std::printf("XGYRO options (k members at once, %d/k sequential jobs):\n",
              n_sims);
  double best = cgyro_campaign;
  int best_k = 1;
  for (int k = 2; k <= n_sims; k *= 2) {
    if (n_sims % k != 0 || machine.total_ranks() % k != 0) continue;
    try {
      const auto xg = perfmodel::plan_xgyro(input, k, machine);
      const double campaign = (n_sims / k) * xg.per_report.total();
      std::printf("%s\n  -> campaign %.3f s per reporting step%s\n",
                  xg.describe().c_str(), campaign,
                  xg.fit.fits ? "" : "  [INFEASIBLE]");
      if (xg.fit.fits && (best < 0 || campaign < best)) {
        best = campaign;
        best_k = k;
      }
    } catch (const Error& e) {
      std::printf("k=%d: %s\n", k, e.what());
    }
  }

  if (best > 0 && cgyro_campaign > 0) {
    std::printf("\nrecommendation: k=%d (%.2fx vs sequential CGYRO; the paper "
                "measured 1.5x for k=8 on 32 nodes)\n",
                best_k, cgyro_campaign / best);
  } else if (best > 0) {
    std::printf("\nrecommendation: k=%d — XGYRO makes the campaign feasible "
                "where plain CGYRO cannot even run one member per job\n",
                best_k);
  }
  return 0;
}

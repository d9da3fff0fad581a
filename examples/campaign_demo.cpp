// Campaign demo: plan and execute a full nl03c-scale study — the paper's
// workflow end-to-end. Eight gradient-scan members on 32 Frontier-like
// nodes: the planner discovers that batching all eight into one XGYRO job
// (one shared cmat) is both the only memory-feasible batched option and the
// cheapest, then the simulated machine executes the plan.
//
//   $ ./examples/campaign_demo [--steps N]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/campaign.hpp"
#include "perfmodel/perfmodel.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

int main(int argc, char** argv) {
  using namespace xg;
  int steps = 5;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::string(argv[i]) == "--steps") steps = std::atoi(argv[i + 1]);
  }

  campaign::CampaignSpec spec;
  gyro::Input base = gyro::Input::nl03c_like();
  base.n_steps_per_report = steps;
  spec.members = xgyro::EnsembleInput::sweep(
      base, 8, [](gyro::Input& in, int i) {
        in.species[0].a_ln_t = 2.0 + 0.25 * i;
        in.tag = strprintf("aLT=%.2f", in.species[0].a_ln_t);
      });
  spec.machine = perfmodel::nl03c_machine(32);

  std::printf("study: 8 nl03c-like members, %d nodes, %d steps/report\n\n",
              spec.machine.n_nodes, steps);

  const auto plan = campaign::plan_campaign(spec);
  std::printf("%s\n", plan.describe().c_str());

  std::printf("executing on the simulated machine (model mode)...\n");
  const auto result = campaign::run_campaign(spec, plan);
  std::printf("measured campaign cost: %.3f s per reporting step "
              "(predicted %.3f s)\n\n",
              result.total_report_seconds(), plan.predicted_total_seconds);

  // What would sequential CGYRO have cost?
  campaign::CampaignPlan sequential;
  for (int m = 0; m < spec.members.n_sims(); ++m) {
    campaign::JobPlan job;
    job.member_indices = {m};
    job.ranks_per_sim = spec.machine.total_ranks();
    job.decomp = gyro::Decomposition::choose(base, job.ranks_per_sim, 1);
    sequential.jobs.push_back(job);
  }
  const auto seq = campaign::run_campaign(spec, sequential);
  std::printf("sequential CGYRO baseline: %.3f s per reporting step -> "
              "campaign speedup %.2fx (paper: 1.5x)\n",
              seq.total_report_seconds(),
              seq.total_report_seconds() / result.total_report_seconds());
  return 0;
}

#include "perfmodel/perfmodel.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "gyro/simulation.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::perfmodel {

using Kind = mpi::TraceEvent::Kind;

net::MachineSpec nl03c_machine(int n_nodes) {
  net::MachineSpec m = net::frontier_like(n_nodes);
  // Effective per-rank capacity available to solver buffers. The hardware
  // has 64 GB per GCD; the real code's FFT workspaces, runtime, staging and
  // safety margins consume the rest at nl03c scale. 5 GB reproduces both
  // published memory facts for the nl03c-like stand-in case: the 32-node
  // single-simulation minimum, and the 8-member ensemble fitting on those
  // same 32 nodes.
  m.name = "frontier-like (nl03c-calibrated capacity)";
  m.rank_memory_bytes = 5.0e9;
  return m;
}

PhaseEstimate estimate_phases(const gyro::Input& input,
                              const gyro::Decomposition& d, int k,
                              const net::MachineSpec& spec,
                              const mpi::CollSelector* selector) {
  const gyro::ComputeModel cm;
  const double elems = static_cast<double>(input.nv()) / d.pv * input.nc() *
                       (static_cast<double>(input.nt()) / d.pt);
  const std::uint64_t field_bytes =
      static_cast<std::uint64_t>(input.nc()) * (input.nt() / d.pt) * 16;
  const net::Placement place(spec);
  const int steps = input.n_steps_per_report;

  // World ranks of rank 0's communicators, as make_cgyro_layout and
  // make_xgyro_layout split them: nv holds the pv velocity ranks of one
  // toroidal block, t one rank per toroidal block (pv apart), and coll the
  // nv ranks of every member sharing cmat (CGYRO aliases coll to nv).
  std::vector<int> nv(static_cast<size_t>(d.pv));
  std::iota(nv.begin(), nv.end(), 0);
  std::vector<int> t;
  for (int j = 0; j < d.pt; ++j) t.push_back(j * d.pv);
  std::vector<int> coll;
  for (int s = 0; s < std::max(1, k); ++s) {
    for (const int r : nv) coll.push_back(s * d.pv * d.pt + r);
  }
  // Each collective priced as the schedule the DES runs for it.
  const mpi::CollSelector& sel =
      selector != nullptr ? *selector : mpi::CollSelector::tuned();
  const auto price = [&](const std::vector<int>& members, Kind kind,
                         std::uint64_t bytes) {
    return mpi::price_collective(place, members, kind, bytes,
                                 mpi::CollAlg::kAuto, sel);
  };

  PhaseEstimate e;
  // --- streaming: 4 RK stages per step, field (n_field components) +
  // upwind reductions each stage --------------------------------------------
  const double stage_flops =
      elems * ((input.n_field + 1.0) * cm.field_partial_flops_per_elem +
               cm.rhs_flops_per_elem);
  e.str = steps * 4.0 * place.compute_time(stage_flops, 0.0);
  e.str_comm = steps * 4.0 *
               (price(nv, Kind::kAllReduce, field_bytes * input.n_field) +
                price(nv, Kind::kAllReduce, field_bytes));

  // --- nonlinear bracket ------------------------------------------------------
  if (input.nonlinear) {
    const double nl_flops =
        elems * (cm.nl_flops_per_elem_base +
                 cm.nl_fft_flops_per_log *
                     std::log2(static_cast<double>(std::max(2, input.nt()))));
    e.nl = steps * 4.0 * place.compute_time(nl_flops, 0.0);
    // φ allgather + two transposes over the t communicator.
    const std::uint64_t block =
        static_cast<std::uint64_t>(input.nt() / d.pt) * (input.nc() / d.pt) *
        (input.nv() / d.pv) * 16;
    e.nl_comm = steps * 4.0 *
                (price(t, Kind::kAllGather, field_bytes) +
                 2.0 * price(t, Kind::kAllToAll, block));
  }

  // --- collisions --------------------------------------------------------------
  const double cells = static_cast<double>(input.nc()) / d.pv *
                       (static_cast<double>(input.nt()) / d.pt);
  const double apply_flops = 4.0 * static_cast<double>(input.nv()) * input.nv();
  const double apply_bytes =
      static_cast<double>(input.nv()) * input.nv() * sizeof(float);
  // Sharing cmat across k members turns the collision apply into a batched
  // GEMM: flops stay proportional to sim-cells, but each distinct cell's
  // matrix is streamed once for all k right-hand sides — k× the arithmetic
  // intensity, matching the DES's collision_step charge.
  const double distinct_cells = cells / std::max(1, k);
  e.coll = steps * place.compute_time(cells * apply_flops,
                                      distinct_cells * apply_bytes);
  const int coll_p = static_cast<int>(coll.size());
  const std::uint64_t coll_block =
      static_cast<std::uint64_t>(input.nv() / d.pv) *
      (input.nc() / coll_p) * (input.nt() / d.pt) * 16;
  e.coll_comm = steps * 2.0 * price(coll, Kind::kAllToAll, coll_block);
  return e;
}

std::string PlanPoint::describe() const {
  return strprintf(
      "%-6s k=%d nodes=%d ranks/sim=%d (pv=%d pt=%d)  mem %s/%s (%s)  "
      "t/report %.3fs [str %.3f, str_comm %.3f, nl %.3f, nl_comm %.3f, "
      "coll %.3f, coll_comm %.3f]",
      n_sims > 1 ? "XGYRO" : "CGYRO", n_sims, nodes, ranks_per_sim, decomp.pv,
      decomp.pt, human_bytes(fit.required_bytes).c_str(),
      human_bytes(fit.available_bytes).c_str(), fit.fits ? "fits" : "DOES NOT FIT",
      per_report.total(), per_report.str, per_report.str_comm, per_report.nl,
      per_report.nl_comm, per_report.coll, per_report.coll_comm);
}

PlanPoint plan_cgyro(const gyro::Input& input, const net::MachineSpec& machine) {
  PlanPoint p;
  p.nodes = machine.n_nodes;
  p.ranks_per_sim = machine.total_ranks();
  p.n_sims = 1;
  p.decomp = gyro::Decomposition::choose(input, p.ranks_per_sim);
  p.fit = cluster::check_fit(
      gyro::Simulation::memory_inventory(input, p.decomp, 1), machine);
  p.per_report = estimate_phases(input, p.decomp, 1, machine);
  return p;
}

PlanPoint plan_xgyro(const gyro::Input& input, int k,
                     const net::MachineSpec& machine,
                     const mpi::CollSelector* selector) {
  XG_REQUIRE(k >= 1, "plan_xgyro: k must be >= 1");
  XG_REQUIRE(machine.total_ranks() % k == 0,
             "plan_xgyro: total ranks not divisible by ensemble size");
  PlanPoint p;
  p.nodes = machine.n_nodes;
  p.ranks_per_sim = machine.total_ranks() / k;
  p.n_sims = k;
  p.decomp = gyro::Decomposition::choose(input, p.ranks_per_sim, k);
  p.fit = cluster::check_fit(
      gyro::Simulation::memory_inventory(input, p.decomp, k), machine);
  p.per_report = estimate_phases(input, p.decomp, k, machine, selector);
  return p;
}

double estimate_queue_wait(double backlog_node_seconds, int cluster_nodes) {
  XG_REQUIRE(cluster_nodes >= 1, "estimate_queue_wait: need >= 1 node");
  if (backlog_node_seconds <= 0.0) return 0.0;
  return backlog_node_seconds / cluster_nodes;
}

WaitCalibration calibrate_queue_wait(const std::vector<double>& predicted_s,
                                     const std::vector<double>& realized_s,
                                     double tolerance, double min_coverage) {
  if (predicted_s.size() != realized_s.size()) {
    throw InputError(strprintf(
        "calibrate_queue_wait: %zu predictions vs %zu realized waits",
        predicted_s.size(), realized_s.size()));
  }
  WaitCalibration c;
  c.tolerance = tolerance;
  c.min_coverage = min_coverage;
  c.n = static_cast<int>(predicted_s.size());
  if (c.n == 0) return c;
  double abs_err = 0.0, err = 0.0, pred = 0.0, real = 0.0;
  int covered = 0;
  for (size_t i = 0; i < predicted_s.size(); ++i) {
    const double e = predicted_s[i] - realized_s[i];
    abs_err += std::abs(e);
    err += e;
    pred += predicted_s[i];
    real += realized_s[i];
    // A hair of slack so predicted == realized (e.g. both zero on an idle
    // service) counts as the lower bound holding.
    if (predicted_s[i] <= realized_s[i] + 1e-9) ++covered;
  }
  c.mae_s = abs_err / c.n;
  c.bias_s = err / c.n;
  c.mean_predicted_s = pred / c.n;
  c.mean_realized_s = real / c.n;
  c.ratio = c.mean_realized_s > 0.0 ? c.mae_s / c.mean_realized_s : 0.0;
  c.coverage = static_cast<double>(covered) / c.n;
  c.significant = c.n >= kWaitCalibrationMinSamples &&
                  c.mean_realized_s >= kWaitCalibrationMinMeanWaitS;
  c.pass = !c.significant ||
           (c.ratio <= tolerance && c.coverage >= min_coverage);
  return c;
}

AuditGate audit_fast_path(const std::vector<double>& price_s,
                          const std::vector<double>& measured_s,
                          double tolerance) {
  if (price_s.size() != measured_s.size()) {
    throw InputError(strprintf(
        "audit_fast_path: %zu prices vs %zu measured costs",
        price_s.size(), measured_s.size()));
  }
  AuditGate g;
  g.tolerance = tolerance;
  g.n = static_cast<int>(price_s.size());
  if (g.n == 0) return g;
  double price_sum = 0.0, measured_sum = 0.0, ratio_sum = 0.0;
  for (size_t i = 0; i < price_s.size(); ++i) {
    const double p = price_s[i];
    const double m = measured_s[i];
    if ((p <= 0.0) != (m <= 0.0)) {
      throw InputError(strprintf(
          "audit_fast_path: sample %zu has price %g vs measured %g (one "
          "side vanished)", i, p, m));
    }
    price_sum += p;
    measured_sum += m;
    const double ratio =
        (p <= 0.0 && m <= 0.0) ? 1.0 : std::max(p, m) / std::min(p, m);
    ratio_sum += ratio;
    g.worst_ratio = std::max(g.worst_ratio, ratio);
  }
  g.mean_price_s = price_sum / g.n;
  g.mean_measured_s = measured_sum / g.n;
  g.mean_ratio = ratio_sum / g.n;
  g.significant =
      g.n >= kAuditMinSamples && g.mean_measured_s >= kAuditMinMeanMeasuredS;
  g.pass = !g.significant || g.worst_ratio <= tolerance;
  return g;
}

int min_feasible_nodes_cgyro(const gyro::Input& input, int max_nodes) {
  for (int n = 1; n <= max_nodes; n *= 2) {
    const auto machine = nl03c_machine(n);
    try {
      const auto p = plan_cgyro(input, machine);
      if (p.fit.fits) return n;
    } catch (const DecompositionError&) {
      continue;
    }
  }
  return -1;
}

}  // namespace xg::perfmodel

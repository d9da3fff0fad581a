// Performance-model tests: the collective pricer vs the discrete-event
// simulator, per-phase estimates, and the nl03c memory-feasibility claims
// from the paper.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <string>

#include "gyro/simulation.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simmpi/coll.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "xgyro/driver.hpp"

namespace xg::perfmodel {
namespace {

// --- the collective pricer ---------------------------------------------------
// mpi::price_collective replays the schedule the DES runs through the DES's
// own LogGP step, so its price of one isolated collective must equal the
// DES makespan exactly: double equality, no tolerance.

struct PricerCase {
  bool frontier = false;  ///< frontier_like, else testbox(·, 4)
  bool round_robin = false;
  int p = 1;
};

std::string case_name(const PricerCase& c) {
  return std::string(c.frontier ? "frontier" : "testbox") +
         (c.round_robin ? "_roundrobin_p" : "_block_p") + std::to_string(c.p);
}

// Names the case in gtest's output (and in the discovered ctest names)
// instead of the struct's raw bytes, padding included.
void PrintTo(const PricerCase& c, std::ostream* os) { *os << case_name(c); }

net::MachineSpec pricer_machine(const PricerCase& c) {
  net::MachineSpec spec = c.frontier ? net::frontier_like((c.p + 7) / 8)
                                     : net::testbox((c.p + 3) / 4, 4);
  if (c.round_robin) spec.placement = net::PlacementStrategy::kRoundRobin;
  return spec;
}

class CollPricer : public ::testing::TestWithParam<PricerCase> {};

TEST_P(CollPricer, ReplayEqualsDesMakespan) {
  using K = mpi::TraceEvent::Kind;
  const auto spec = pricer_machine(GetParam());
  const int p = GetParam().p;
  const net::Placement place(spec);
  std::vector<int> members(static_cast<size_t>(p));
  std::iota(members.begin(), members.end(), 0);
  for (const K kind : {K::kAllReduce, K::kAllGather, K::kAllToAll}) {
    const auto selectable = mpi::selectable_algs(kind);
    std::vector<mpi::CollAlg> algs(selectable.begin(), selectable.end());
    algs.push_back(mpi::CollAlg::kAuto);
    if (kind == K::kAllReduce) algs.push_back(mpi::CollAlg::kBrokenForTesting);
    for (const mpi::CollAlg alg : algs) {
      for (const std::uint64_t bytes : {64u, 4096u, 65536u, 1u << 20}) {
        const auto des = mpi::run_simulation(spec, p, [&](mpi::Proc& proc) {
          mpi::Comm world = proc.world();
          if (kind == K::kAllReduce) world.allreduce_virtual(bytes, alg);
          if (kind == K::kAllGather) world.allgather_virtual(bytes, alg);
          if (kind == K::kAllToAll) world.alltoall_virtual(bytes, alg);
        });
        EXPECT_EQ(mpi::price_collective(place, members, kind, bytes, alg),
                  des.makespan_s)
            << mpi::coll_kind_key(kind) << " " << mpi::coll_alg_name(alg)
            << " p=" << p << " bytes=" << bytes;
      }
    }
  }
}

std::vector<PricerCase> pricer_cases() {
  std::vector<int> ps;
  for (int p = 1; p <= 17; ++p) ps.push_back(p);
  for (const int p : {24, 64, 256}) ps.push_back(p);
  std::vector<PricerCase> cases;
  for (const bool frontier : {false, true}) {
    for (const bool rr : {false, true}) {
      for (const int p : ps) cases.push_back({frontier, rr, p});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CollPricer, ::testing::ValuesIn(pricer_cases()),
    [](const ::testing::TestParamInfo<PricerCase>& info) {
      return case_name(info.param);
    });

double world_price(const net::MachineSpec& spec, int p,
                   mpi::TraceEvent::Kind kind, std::uint64_t bytes) {
  std::vector<int> members(static_cast<size_t>(p));
  std::iota(members.begin(), members.end(), 0);
  return mpi::price_collective(net::Placement(spec), members, kind, bytes);
}

// One rank per node, so every pair is internode; the tuned table picks the
// algorithm. (The names predate exact pricing: the bound is now equality.)
class DesCrossCheck : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(DesCrossCheck, AllReduceEstimateWithinFactorTwoOfDes) {
  const auto [p, bytes] = GetParam();
  const auto spec = net::testbox(p, 1);
  const auto res = mpi::run_simulation(spec, p, [&](mpi::Proc& proc) {
    proc.world().allreduce_virtual(bytes);
  });
  EXPECT_EQ(world_price(spec, p, mpi::TraceEvent::Kind::kAllReduce, bytes),
            res.makespan_s);
  if (p == 1) {
    EXPECT_EQ(res.makespan_s, 0.0);
  }
}

TEST_P(DesCrossCheck, AllToAllEstimateWithinFactorTwoOfDes) {
  const auto [p, bytes] = GetParam();
  const auto spec = net::testbox(p, 1);
  const auto res = mpi::run_simulation(spec, p, [&](mpi::Proc& proc) {
    proc.world().alltoall_virtual(bytes);
  });
  EXPECT_EQ(world_price(spec, p, mpi::TraceEvent::Kind::kAllToAll, bytes),
            res.makespan_s);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DesCrossCheck,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(size_t{1024}, size_t{512 * 1024})));

TEST(CollPrice, LogGpStepComponents) {
  // The one LogGP step the DES and the pricer share: o_send on the CPU,
  // the injection on the NIC, the wire, then o_recv on the receiver.
  const auto spec = net::testbox(2, 2);
  const net::Placement place(spec);
  double clock = 0.0;
  double nic_free = 0.0;
  const auto intra = place.send(clock, nic_free, 0, 1, 1000, -1);
  EXPECT_DOUBLE_EQ(clock, spec.send_overhead_s);
  EXPECT_DOUBLE_EQ(intra.complete_at,
                   spec.send_overhead_s + 1000 / spec.intra_bw_Bps);
  EXPECT_EQ(nic_free, intra.complete_at);
  EXPECT_DOUBLE_EQ(intra.arrival, intra.complete_at + spec.intra_latency_s);
  EXPECT_DOUBLE_EQ(place.receive(0.0, intra.arrival),
                   intra.arrival + spec.recv_overhead_s);
  // A second send queues behind the first on the NIC; an internode one
  // pays the slower link.
  const auto inter = place.send(clock, nic_free, 0, 2, 1000, -1);
  EXPECT_DOUBLE_EQ(inter.complete_at,
                   intra.complete_at + 1000 / spec.inter_bw_Bps);
  EXPECT_GT(inter.arrival - inter.complete_at,
            intra.arrival - intra.complete_at);
}

TEST(CollPrice, AllReduceGrowsWithParticipants) {
  const auto spec = net::testbox(32, 1);
  double prev = 0;
  for (const int p : {2, 4, 8, 16, 32}) {
    const double t =
        world_price(spec, p, mpi::TraceEvent::Kind::kAllReduce, 256 * 1024);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(world_price(spec, 1, mpi::TraceEvent::Kind::kAllReduce, 1024), 0.0);
}

TEST(CollPrice, RabenseifnerBeatsRingAt256Nodes) {
  // The tuned table's reason at the node_scaling sweep's largest machine
  // (frontier-like, 256 nodes) and the nl03c field payload (512 KiB):
  // Rabenseifner's halved payload per level beats the ring's 2(P-1) rounds
  // by orders of magnitude. One rank per node, as in a t communicator.
  const auto spec = net::frontier_like(256);
  const net::Placement place(spec);
  std::vector<int> members;
  for (int n = 0; n < 256; ++n) members.push_back(n * spec.ranks_per_node);
  using K = mpi::TraceEvent::Kind;
  const std::uint64_t bytes = 512 * 1024;
  const double rab = mpi::price_collective(place, members, K::kAllReduce,
                                           bytes, mpi::CollAlg::kRabenseifner);
  const double ring = mpi::price_collective(place, members, K::kAllReduce,
                                            bytes, mpi::CollAlg::kRing);
  EXPECT_LT(10.0 * rab, ring);
  // kAuto resolves through the tuned table to Rabenseifner at this key.
  EXPECT_EQ(mpi::price_collective(place, members, K::kAllReduce, bytes), rab);
}

TEST(Nl03c, SingleSimulationNeedsThirtyTwoNodes) {
  // Paper §3: "a single CGYRO simulation does require at least 32 nodes."
  const auto in = gyro::Input::nl03c_like();
  EXPECT_EQ(min_feasible_nodes_cgyro(in, 128), 32);
  // Sharper: 16 nodes must fail on memory, 32 must fit.
  EXPECT_FALSE(plan_cgyro(in, nl03c_machine(16)).fit.fits);
  EXPECT_TRUE(plan_cgyro(in, nl03c_machine(32)).fit.fits);
}

TEST(Nl03c, EnsembleOfEightFitsOnThirtyTwoNodes) {
  // Paper §3: 8 nl03c variants run as one XGYRO ensemble on 32 nodes.
  const auto in = gyro::Input::nl03c_like();
  const auto p = plan_xgyro(in, 8, nl03c_machine(32));
  EXPECT_TRUE(p.fit.fits);
  EXPECT_GT(p.fit.utilization, 0.5);  // memory-tight, as on the real machine
  // Without cmat sharing the same placement would NOT fit: account the
  // ensemble layout but with per-simulation cmat copies (k=1 accounting on
  // the per-sim decomposition).
  const auto no_sharing = cluster::check_fit(
      gyro::Simulation::memory_inventory(in, p.decomp, 1), nl03c_machine(32));
  EXPECT_FALSE(no_sharing.fits);
}

TEST(Nl03c, CmatDominatesAndSharingShrinksIt) {
  const auto in = gyro::Input::nl03c_like();
  const auto d1 = gyro::Decomposition::choose(in, 256);
  const auto inv1 = gyro::Simulation::memory_inventory(in, d1, 1);
  EXPECT_GT(inv1.bytes_of("cmat") / inv1.total_excluding("cmat"), 8.0);
  const auto d8 = gyro::Decomposition::choose(in, 32, 8);
  const auto inv8 = gyro::Simulation::memory_inventory(in, d8, 8);
  // Shared slice is 8× smaller than an unshared slice on the same decomp.
  const auto inv8_unshared = gyro::Simulation::memory_inventory(in, d8, 1);
  EXPECT_DOUBLE_EQ(inv8.bytes_of("cmat") * 8, inv8_unshared.bytes_of("cmat"));
}

TEST(Planner, XgyroBeatsCgyroSumOnNl03c) {
  // Planner version of Fig. 2: 8 members, 32 nodes.
  const auto in = gyro::Input::nl03c_like();
  const auto machine = nl03c_machine(32);
  const auto cg = plan_cgyro(in, machine);
  const auto xg = plan_xgyro(in, 8, machine);
  const double cgyro_sum = 8.0 * cg.per_report.total();
  const double xgyro = xg.per_report.total();
  EXPECT_LT(xgyro, cgyro_sum);
  const double speedup = cgyro_sum / xgyro;
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 4.0);
  // The win comes from str communication (paper: 145 s → 33 s).
  EXPECT_LT(xg.per_report.str_comm, 8.0 * cg.per_report.str_comm);
  // Collision flops are work-conserving, but sharing cmat raises the
  // kernel's arithmetic intensity k-fold: at k=1 the apply is memory-bound
  // (4 cmat bytes per 4 flops, and the machine moves bytes half as fast as
  // flops), at k=8 the batched apply streams each cell once for all 8
  // members and goes flops-bound — half the per-apply cost on this machine.
  EXPECT_LT(xg.per_report.coll, 8.0 * cg.per_report.coll);
  EXPECT_NEAR(xg.per_report.coll, 4.0 * cg.per_report.coll,
              0.05 * xg.per_report.coll);
}

TEST(Planner, PerPhaseGoldenValuesK1VsK8OnFrontierLike) {
  // Golden values for estimate_phases on the Fig. 2 operating point
  // (nl03c-like, 32-node frontier-like machine): k=1 on all 256 ranks vs
  // the 8-member ensemble at 32 ranks each. These pin the model so a
  // change shows up as an explicit golden update, and they encode the
  // ordering fig2_breakdown measures in the DES: with shared cmat the
  // ensemble's str AllReduce and collision apply cost less than 8
  // sequential single runs, while its coll transpose — one AllToAll over
  // all 8 members' nv ranks — costs more (fig2_breakdown: 0.70x).
  const auto in = gyro::Input::nl03c_like();
  const auto machine = nl03c_machine(32);
  const auto d1 = gyro::Decomposition::choose(in, 256);
  const auto d8 = gyro::Decomposition::choose(in, 32, 8);
  const auto p1 = estimate_phases(in, d1, 1, machine);
  const auto p8 = estimate_phases(in, d8, 8, machine);

  auto near = [](double value, double golden) {
    EXPECT_NEAR(value, golden, 1e-6 * golden);
  };
  near(p1.str, 0.033973862);
  // With the tuned selector the 16-rank nv AllReduce of the 512 KiB field
  // stack runs as Rabenseifner (halved payload per level).
  near(p1.str_comm, 0.116988928);
  near(p1.nl, 0.016515072);
  near(p1.nl_comm, 1.430520320);
  near(p1.coll, 0.271790899);
  near(p1.coll_comm, 0.191625088);
  near(p8.str, 0.271790899);
  near(p8.str_comm, 0.019977216);
  near(p8.nl, 0.132120576);
  near(p8.nl_comm, 7.995600384);
  near(p8.coll, 1.087163597);
  near(p8.coll_comm, 2.159277952);

  // Campaign-normalized ordering (k=8 run vs 8 sequential k=1 runs):
  // str_comm collapses (the shared-cmat AllReduce), coll halves (batched
  // apply goes flops-bound), the coll transpose grows.
  EXPECT_LT(p8.str_comm, 8.0 * p1.str_comm);
  EXPECT_LT(p8.coll, 8.0 * p1.coll);
  EXPECT_GT(p8.coll_comm, 8.0 * p1.coll_comm);
}

TEST(Planner, PhiGatherPricedThroughTheSelector) {
  // The solver's φ AllGather over the t communicator runs whatever the
  // selector picks (Bruck under the tuned table for pt > 2), so a table
  // that changes only the AllGather rule must move nl_comm and nothing
  // else.
  const auto in = gyro::Input::nl03c_like();
  const auto machine = nl03c_machine(32);
  const auto d = gyro::Decomposition::choose(in, 256);
  ASSERT_GT(d.pt, 2);
  mpi::CollRule ring_gather;
  ring_gather.kind = mpi::TraceEvent::Kind::kAllGather;
  ring_gather.alg = mpi::CollAlg::kRing;
  const mpi::CollSelector ring_only({ring_gather});
  const auto tuned = estimate_phases(in, d, 1, machine);
  const auto ring = estimate_phases(in, d, 1, machine, &ring_only);
  EXPECT_NE(ring.nl_comm, tuned.nl_comm);
  EXPECT_EQ(ring.str_comm, tuned.str_comm);
  EXPECT_EQ(ring.coll_comm, tuned.coll_comm);
}

TEST(Planner, PhaseEstimatesTrackDesWithinFactorThree) {
  // Every collective is priced exactly as the DES charges it alone; what
  // the estimate leaves out is the run around it (arrival skew, kernel
  // launches, init). At this small operating point that keeps the total
  // within 1.75x and the str AllReduce phase within 1.08x of the DES.
  // (Machine small enough to run the DES quickly.)
  gyro::Input in = gyro::Input::small_test(2);
  in.n_radial = 16;
  in.n_theta = 8;
  in.n_steps_per_report = 3;
  const auto machine = net::frontier_like(2);  // 16 ranks
  const auto plan = plan_cgyro(in, machine);
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  const auto des = xgyro::run_cgyro_job(in, machine, 16, opts);
  const double des_total = xgyro::report_step_seconds(des);
  EXPECT_GT(plan.per_report.total(), des_total / 1.75);
  EXPECT_LT(plan.per_report.total(), des_total * 1.75);
  const double des_str_comm = xgyro::phase_seconds(des, "str_comm");
  ASSERT_GT(des_str_comm, 0.0);
  EXPECT_GT(plan.per_report.str_comm, des_str_comm / 1.08);
  EXPECT_LT(plan.per_report.str_comm, des_str_comm * 1.08);
}

TEST(Planner, DescribeMentionsKeyFields) {
  const auto in = gyro::Input::nl03c_like();
  const auto p = plan_xgyro(in, 8, nl03c_machine(32));
  const auto s = p.describe();
  EXPECT_NE(s.find("XGYRO"), std::string::npos);
  EXPECT_NE(s.find("k=8"), std::string::npos);
  EXPECT_NE(s.find("str_comm"), std::string::npos);
}

TEST(Planner, RejectsIndivisibleEnsemble) {
  const auto in = gyro::Input::nl03c_like();
  EXPECT_THROW(plan_xgyro(in, 7, nl03c_machine(32)), Error);
}

TEST(QueueWait, EstimateIsMonotoneAndGuarded) {
  // Empty backlog waits nothing; otherwise backlog drains at full cluster
  // utilization (the admission-time lower bound the service reports).
  EXPECT_DOUBLE_EQ(estimate_queue_wait(0.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(estimate_queue_wait(-1.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(estimate_queue_wait(100.0, 4), 25.0);
  EXPECT_GT(estimate_queue_wait(200.0, 4), estimate_queue_wait(100.0, 4));
  EXPECT_LT(estimate_queue_wait(100.0, 8), estimate_queue_wait(100.0, 4));
  EXPECT_THROW(estimate_queue_wait(1.0, 0), Error);
}

TEST(WaitCalibrationGate, SmallOrQuietSamplesReportButNeverGate) {
  // 4 wildly wrong predictions: under the sample-count cut.
  const WaitCalibration few = calibrate_queue_wait(
      {100.0, 100.0, 100.0, 100.0}, {2.0, 2.0, 2.0, 2.0});
  EXPECT_FALSE(few.significant);
  EXPECT_TRUE(few.pass);
  EXPECT_EQ(few.n, 4);

  // 20 wrong predictions of waits in the noise: under the mean-wait cut.
  std::vector<double> pred(20, 5.0), real(20, 0.1);
  const WaitCalibration quiet = calibrate_queue_wait(pred, real);
  EXPECT_FALSE(quiet.significant);
  EXPECT_TRUE(quiet.pass);
  EXPECT_LT(quiet.mean_realized_s, kWaitCalibrationMinMeanWaitS);
}

TEST(WaitCalibrationGate, AccurateLowerBoundPasses) {
  // Predictions sit just under the realized waits, as a lower bound
  // should: tight ratio, full coverage.
  std::vector<double> pred, real;
  for (int i = 0; i < 20; ++i) {
    real.push_back(8.0 + 0.25 * i);
    pred.push_back(real.back() - 0.5);
  }
  const WaitCalibration c = calibrate_queue_wait(pred, real);
  EXPECT_TRUE(c.significant);
  EXPECT_TRUE(c.pass);
  EXPECT_NEAR(c.mae_s, 0.5, 1e-12);
  EXPECT_NEAR(c.bias_s, -0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.coverage, 1.0);
  EXPECT_LT(c.ratio, 0.1);
}

TEST(WaitCalibrationGate, OverpredictionTripsBothCuts) {
  // Predictions far above the realized waits: ratio blows the tolerance
  // and coverage collapses (the lower-bound property is gone).
  std::vector<double> pred(20, 30.0), real(20, 10.0);
  const WaitCalibration c = calibrate_queue_wait(pred, real);
  EXPECT_TRUE(c.significant);
  EXPECT_FALSE(c.pass);
  EXPECT_GT(c.ratio, kDefaultWaitTolerance);
  EXPECT_DOUBLE_EQ(c.coverage, 0.0);

  // The same data under a looser gate passes the ratio but still fails
  // coverage; relaxing both clears it.
  EXPECT_FALSE(calibrate_queue_wait(pred, real, 3.0).pass);
  EXPECT_TRUE(calibrate_queue_wait(pred, real, 3.0, 0.0).pass);
}

TEST(WaitCalibrationGate, RejectsMismatchedVectors) {
  EXPECT_THROW(calibrate_queue_wait({1.0, 2.0}, {1.0}), InputError);
  const WaitCalibration empty = calibrate_queue_wait({}, {});
  EXPECT_EQ(empty.n, 0);
  EXPECT_TRUE(empty.pass);
  EXPECT_FALSE(empty.significant);
}

TEST(FastPathAuditGate, SmallOrQuietSamplesReportButNeverGate) {
  // Two wildly divergent audits: under the sample-count cut.
  const AuditGate few = audit_fast_path({1.0, 1.0}, {10.0, 10.0});
  EXPECT_EQ(few.n, 2);
  EXPECT_FALSE(few.significant);
  EXPECT_TRUE(few.pass);
  EXPECT_DOUBLE_EQ(few.worst_ratio, 10.0);

  // Audited costs down in the noise: under the mean-measured cut.
  const AuditGate quiet =
      audit_fast_path({1e-8, 1e-8, 1e-8, 1e-8}, {1e-7, 1e-7, 1e-7, 1e-7});
  EXPECT_FALSE(quiet.significant);
  EXPECT_TRUE(quiet.pass);
  EXPECT_LT(quiet.mean_measured_s, kAuditMinMeanMeasuredS);

  const AuditGate empty = audit_fast_path({}, {});
  EXPECT_EQ(empty.n, 0);
  EXPECT_TRUE(empty.pass);
  EXPECT_FALSE(empty.significant);
}

TEST(FastPathAuditGate, AccuratePricesPassAndStatsAreExact) {
  // Prices within a few percent of the audited costs, both directions:
  // the ratio is symmetric (max/min), so under- and over-pricing gate
  // alike.
  const AuditGate g = audit_fast_path({1.0, 2.0, 4.2}, {1.1, 1.9, 4.2});
  EXPECT_EQ(g.n, 3);
  EXPECT_TRUE(g.significant);
  EXPECT_TRUE(g.pass);
  EXPECT_NEAR(g.worst_ratio, 1.1, 1e-12);
  EXPECT_NEAR(g.mean_price_s, 7.2 / 3.0, 1e-12);
  EXPECT_NEAR(g.mean_measured_s, 7.2 / 3.0, 1e-12);
  EXPECT_GE(g.mean_ratio, 1.0);
  EXPECT_LE(g.mean_ratio, g.worst_ratio);
  EXPECT_DOUBLE_EQ(g.tolerance, kDefaultAuditTolerance);
}

TEST(FastPathAuditGate, SingleDivergentJobTripsTheGate) {
  // The gate is a worst-case cut, not an average: one job drifting past
  // the tolerance fails the whole stream even if the mean looks fine.
  const AuditGate g =
      audit_fast_path({1.0, 1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 3.5});
  EXPECT_TRUE(g.significant);
  EXPECT_FALSE(g.pass);
  EXPECT_NEAR(g.worst_ratio, 3.5, 1e-12);
  EXPECT_LT(g.mean_ratio, kDefaultAuditTolerance);

  // A wider tolerance accepts the same stream.
  EXPECT_TRUE(audit_fast_path({1.0, 1.0, 1.0, 1.0},
                              {1.0, 1.0, 1.0, 3.5}, 4.0).pass);
}

TEST(FastPathAuditGate, ZeroPairsCountAsAgreement) {
  // A job whose price and audited cost both vanish contributes ratio 1
  // (perfect agreement), not a division by zero.
  const AuditGate g = audit_fast_path({0.0, 2.0, 2.0}, {0.0, 2.0, 2.0});
  EXPECT_TRUE(g.pass);
  EXPECT_DOUBLE_EQ(g.worst_ratio, 1.0);
  EXPECT_DOUBLE_EQ(g.mean_ratio, 1.0);
}

TEST(FastPathAuditGate, RejectsMismatchedOrOneSidedSamples) {
  EXPECT_THROW(audit_fast_path({1.0, 2.0}, {1.0}), InputError);
  // One side vanished: the model priced work the DES never ran (or vice
  // versa) — that is a bug upstream, not a divergence to average away.
  EXPECT_THROW(audit_fast_path({0.0}, {1.0}), InputError);
  EXPECT_THROW(audit_fast_path({1.0}, {0.0}), InputError);
}

}  // namespace
}  // namespace xg::perfmodel

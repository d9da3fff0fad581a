// Analysis engine tests: arrival annotation on trace rows, critical-path
// extraction (tiles the makespan, follows injected stragglers), wait/work
// decomposition invariants, the perf-model divergence gate, and the
// benchmark baseline harness including the injected-10%-regression
// detection demanded of every recorded baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis/baseline.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/divergence.hpp"
#include "analysis/waitwork.hpp"
#include "gyro/simulation.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simmpi/fault.hpp"
#include "simnet/machine.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::analysis {
namespace {

using telemetry::Json;

xgyro::EnsembleInput make_sweep(int k) {
  gyro::Input base = gyro::Input::small_test(2);
  base.nonlinear = true;
  return xgyro::EnsembleInput::sweep(base, k, [](gyro::Input& in, int i) {
    in.species[0].a_ln_t = 2.0 + 0.5 * i;
    in.tag = "member" + std::to_string(i);
  });
}

mpi::RunResult traced_xgyro_run(int k = 2, int ranks_per_sim = 4,
                                const char* faults = nullptr) {
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  opts.enable_trace = true;
  if (faults != nullptr) opts.faults = mpi::FaultPlan::parse(faults);
  return xgyro::run_xgyro_job(make_sweep(k),
                              net::testbox(1, k * ranks_per_sim),
                              ranks_per_sim, opts);
}

// --- arrival annotation (simmpi) -------------------------------------------

mpi::TraceEvent make_row(std::uint64_t ctx, std::uint64_t seq, int rank,
                         double t_start, double t_end) {
  mpi::TraceEvent e;
  e.kind = mpi::TraceEvent::Kind::kAllReduce;
  e.comm_context = ctx;
  e.seq = seq;
  e.world_rank = rank;
  e.local_rank = rank;
  e.participants = 3;
  e.t_start = t_start;
  e.t_end = t_end;
  return e;
}

TEST(ArrivalAnnotation, FillsSkewLastArrivalAndLastArriverPerInstance) {
  std::vector<mpi::TraceEvent> trace;
  trace.push_back(make_row(7, 0, 0, 1.0, 4.0));
  trace.push_back(make_row(7, 0, 1, 2.5, 4.0));
  trace.push_back(make_row(7, 0, 2, 2.0, 4.0));
  trace.push_back(make_row(7, 1, 0, 5.0, 6.0));  // different instance
  mpi::annotate_collective_arrivals(trace);

  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(trace[i].last_arrival_s, 2.5);
    EXPECT_DOUBLE_EQ(trace[i].arrival_skew_s, 1.5);
    EXPECT_EQ(trace[i].last_arriver, 1);
  }
  EXPECT_DOUBLE_EQ(trace[3].arrival_skew_s, 0.0);
  EXPECT_DOUBLE_EQ(trace[3].last_arrival_s, 5.0);
  EXPECT_EQ(trace[3].last_arriver, 0);
}

TEST(ArrivalAnnotation, TiesBreakTowardLowerWorldRank) {
  std::vector<mpi::TraceEvent> trace;
  trace.push_back(make_row(1, 0, 2, 3.0, 4.0));
  trace.push_back(make_row(1, 0, 0, 3.0, 4.0));
  trace.push_back(make_row(1, 0, 1, 1.0, 4.0));
  mpi::annotate_collective_arrivals(trace);
  EXPECT_EQ(trace[0].last_arriver, 0);
  EXPECT_DOUBLE_EQ(trace[0].arrival_skew_s, 2.0);
}

TEST(ArrivalAnnotation, RuntimeAppliesItToEveryTracedRun) {
  const auto result = traced_xgyro_run();
  ASSERT_FALSE(result.trace.empty());
  // Recompute group maxima independently and cross-check every row.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::pair<double, double>>
      minmax;
  for (const auto& e : result.trace) {
    const auto key = std::make_pair(e.comm_context, e.seq);
    auto [it, inserted] = minmax.try_emplace(key, e.t_start, e.t_start);
    if (!inserted) {
      it->second.first = std::min(it->second.first, e.t_start);
      it->second.second = std::max(it->second.second, e.t_start);
    }
  }
  for (const auto& e : result.trace) {
    const auto& [min_start, max_start] = minmax.at({e.comm_context, e.seq});
    EXPECT_DOUBLE_EQ(e.last_arrival_s, max_start);
    EXPECT_DOUBLE_EQ(e.arrival_skew_s, max_start - min_start);
    EXPECT_GE(e.last_arriver, 0);
  }
}

// --- critical path ----------------------------------------------------------

TEST(CriticalPath, TilesTheMakespanExactly) {
  const auto result = traced_xgyro_run();
  const auto path = compute_critical_path(result);

  EXPECT_GT(path.segments.size(), 1u);
  EXPECT_NEAR(path.covered_s, result.makespan_s, 1e-9 * result.makespan_s);

  // Segments are ascending, disjoint, and contiguous from 0 to makespan.
  double cursor = 0.0;
  for (const auto& seg : path.segments) {
    EXPECT_NEAR(seg.t_start, cursor, 1e-12);
    EXPECT_GT(seg.t_end, seg.t_start);
    cursor = seg.t_end;
  }
  EXPECT_NEAR(cursor, result.makespan_s, 1e-12);

  // Aggregations agree with the segment list.
  double by_phase = 0.0;
  for (const auto& [phase, share] : path.by_phase) by_phase += share.total_s();
  EXPECT_NEAR(by_phase, path.covered_s, 1e-9);
  double by_rank = 0.0;
  for (const auto& [rank, s] : path.seconds_by_rank) by_rank += s;
  EXPECT_NEAR(by_rank, path.covered_s, 1e-9);
  EXPECT_NEAR(path.work_s + path.transfer_s + path.init_s, path.covered_s,
              1e-9);
}

TEST(CriticalPath, FollowsAnInjectedStraggler) {
  // A 10x-slowed rank gates every collective it joins: the backward walk
  // must spend most of the run on it.
  const auto result = traced_xgyro_run(2, 4, "seed=3;straggler=5x10.0");
  const auto path = compute_critical_path(result);
  double straggler_s = 0.0, best_s = 0.0;
  for (const auto& [rank, s] : path.seconds_by_rank) {
    if (rank == 5) straggler_s = s;
    best_s = std::max(best_s, s);
  }
  EXPECT_GT(straggler_s, 0.0);
  EXPECT_DOUBLE_EQ(straggler_s, best_s);
  EXPECT_GT(straggler_s, 0.5 * path.covered_s);
}

TEST(CriticalPath, JsonExportRoundsTripKeyFields) {
  const auto result = traced_xgyro_run();
  const auto path = compute_critical_path(result);
  ASSERT_GT(path.segments.size(), 10u);
  const Json doc = critical_path_json(path, 10);
  EXPECT_DOUBLE_EQ(doc.at("makespan_s").as_double(), path.makespan_s);
  EXPECT_DOUBLE_EQ(doc.at("covered_s").as_double(), path.covered_s);
  EXPECT_EQ(doc.at("segments").size(), 10u);
  EXPECT_TRUE(doc.at("segments_truncated").as_bool());
  EXPECT_EQ(static_cast<std::size_t>(doc.at("n_segments").as_int()),
            path.segments.size());
  // Untruncated export lists every segment.
  const Json full = critical_path_json(path);
  EXPECT_FALSE(full.at("segments_truncated").as_bool());
  EXPECT_EQ(full.at("segments").size(), path.segments.size());
}

TEST(CriticalPath, UntracedRunYieldsSingleInitSegment) {
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  const auto result = xgyro::run_xgyro_job(make_sweep(2), net::testbox(1, 8),
                                           4, opts);
  ASSERT_TRUE(result.trace.empty());
  const auto path = compute_critical_path(result);
  ASSERT_EQ(path.segments.size(), 1u);
  EXPECT_EQ(path.segments[0].kind, PathSegment::Kind::kInit);
  EXPECT_NEAR(path.covered_s, result.makespan_s, 1e-12);
}

// --- wait/work --------------------------------------------------------------

TEST(WaitWork, DecompositionInvariantsHold) {
  const auto result = traced_xgyro_run();
  const auto summary = analyze_waitwork(result);

  std::set<std::pair<std::uint64_t, std::uint64_t>> instances;
  for (const auto& e : result.trace) instances.insert({e.comm_context, e.seq});
  EXPECT_EQ(summary.instances.size(), instances.size());

  double wait = 0.0, transfer = 0.0;
  int phase_instances = 0;
  for (const auto& w : summary.instances) {
    EXPECT_GE(w.wait_s, 0.0);
    EXPECT_GE(w.transfer_s, 0.0);
    EXPECT_GE(w.arrival_skew_s, 0.0);
    EXPECT_NEAR(w.arrival_skew_s, w.last_arrival_s - w.first_arrival_s, 1e-12);
    EXPECT_LE(w.rows, w.participants);
    EXPECT_GE(w.last_arriver, 0);
    wait += w.wait_s;
    transfer += w.transfer_s;
  }
  EXPECT_NEAR(wait, summary.total_wait_s, 1e-9);
  EXPECT_NEAR(transfer, summary.total_transfer_s, 1e-9);
  for (const auto& [phase, agg] : summary.by_phase) {
    phase_instances += agg.instances;
  }
  EXPECT_EQ(phase_instances, static_cast<int>(summary.instances.size()));
}

TEST(WaitWork, StragglerShowsUpAsSkewAndWait) {
  const auto clean = analyze_waitwork(traced_xgyro_run());
  const auto slowed =
      analyze_waitwork(traced_xgyro_run(2, 4, "seed=3;straggler=5x10.0"));
  EXPECT_GT(slowed.max_skew_s, clean.max_skew_s);
  EXPECT_GT(slowed.total_wait_s, clean.total_wait_s);
}

TEST(WaitWork, MetricsRecordingMatchesInstanceCounts) {
  const auto result = traced_xgyro_run();
  const auto summary = analyze_waitwork(result);
  telemetry::MetricsRegistry registry;
  record_waitwork_metrics(summary, registry);
  for (const auto& [phase, agg] : summary.by_phase) {
    EXPECT_EQ(registry.counter_value("analysis.collectives." + phase),
              static_cast<std::uint64_t>(agg.instances));
    const auto* hist = registry.find_histogram("analysis.wait_s." + phase);
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count(), static_cast<std::uint64_t>(agg.instances));
  }
  const Json snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(
      snapshot.at("gauges").at("analysis.total_wait_s").as_double(),
      summary.total_wait_s);
}

// --- perf-model divergence --------------------------------------------------

/// Synthetic run whose per-phase costs are exact multiples of the closed
/// form — full control over the gate's input.
mpi::RunResult synthetic_run(const perfmodel::PhaseEstimate& per_interval,
                             int intervals, double str_scale = 1.0) {
  mpi::RunResult r;
  r.ranks.resize(1);
  r.ranks[0].world_rank = 0;
  auto& phases = r.ranks[0].phases;
  const double n = intervals;
  phases["str"].compute_s = per_interval.str * n * str_scale;
  phases["str_comm"].comm_s = per_interval.str_comm * n;
  phases["nl"].compute_s = per_interval.nl * n;
  phases["nl_comm"].comm_s = per_interval.nl_comm * n;
  phases["coll"].compute_s = per_interval.coll * n;
  phases["coll_comm"].comm_s = per_interval.coll_comm * n;
  return r;
}

TEST(Divergence, GatePassesWhenMeasuredMatchesPrediction) {
  const auto in = gyro::Input::nl03c_like();
  const auto machine = perfmodel::nl03c_machine(32);
  const auto d = gyro::Decomposition::choose(in, 256);
  const auto predicted = perfmodel::estimate_phases(in, d, 1, machine);
  const auto run = synthetic_run(predicted, 3);
  const auto report = check_divergence(run, in, d, 1, machine, 3);
  EXPECT_TRUE(report.pass);
  for (const auto& p : report.phases) {
    EXPECT_NEAR(p.ratio, 1.0, 1e-9);
    EXPECT_TRUE(p.within);
  }
  EXPECT_NEAR(report.measured_total_s, report.predicted_total_s, 1e-9);
}

TEST(Divergence, GateFailsOnASignificantPhaseOutsideTolerance) {
  const auto in = gyro::Input::nl03c_like();
  const auto machine = perfmodel::nl03c_machine(32);
  const auto d = gyro::Decomposition::choose(in, 256);
  const auto predicted = perfmodel::estimate_phases(in, d, 1, machine);
  const auto run = synthetic_run(predicted, 1, /*str_scale=*/10.0);
  const auto report = check_divergence(run, in, d, 1, machine, 1);
  EXPECT_FALSE(report.pass);
  for (const auto& p : report.phases) {
    if (p.phase == "str") {
      EXPECT_NEAR(p.ratio, 10.0, 1e-9);
      EXPECT_TRUE(p.significant);
      EXPECT_FALSE(p.within);
    } else {
      EXPECT_TRUE(p.within);
    }
  }
}

TEST(Divergence, InsignificantPhasesAreReportedButNotGated) {
  const auto in = gyro::Input::nl03c_like();
  const auto machine = perfmodel::nl03c_machine(32);
  const auto d = gyro::Decomposition::choose(in, 256);
  const auto predicted = perfmodel::estimate_phases(in, d, 1, machine);
  auto run = synthetic_run(predicted, 1);
  // Zero out a tiny phase entirely: ratio 0 is outside any tolerance, but
  // nl carries ~0.6% of this configuration's total, below the 1% cut.
  run.ranks[0].phases["nl"].compute_s = 0.0;
  const auto report = check_divergence(run, in, d, 1, machine, 1);
  EXPECT_TRUE(report.pass);
  bool saw_nl = false;
  for (const auto& p : report.phases) {
    if (p.phase == "nl") {
      saw_nl = true;
      EXPECT_FALSE(p.significant);
      EXPECT_FALSE(p.within);
    }
  }
  EXPECT_TRUE(saw_nl);
}

TEST(Divergence, GateTracksARealDesRunAtDefaultTolerance) {
  // The gate must pass against an actual DES run at the paper's operating
  // point (Fig. 2 configuration, reduced step count). Tiny test grids are
  // useless here: the estimate tracks real phases, not microsecond stubs.
  gyro::Input base = gyro::Input::nl03c_like();
  base.n_steps_per_report = 2;
  const int k = 8;
  const auto machine = perfmodel::nl03c_machine(32);
  const int ranks_per_sim = machine.total_ranks() / k;  // 32
  const auto ensemble = xgyro::EnsembleInput::sweep(
      base, k, [](gyro::Input& in, int i) {
        in.species[0].a_ln_t = 2.0 + 0.25 * i;
        in.tag = "v" + std::to_string(i);
      });
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  const auto des = xgyro::run_xgyro_job(ensemble, machine, ranks_per_sim, opts);
  const auto d = gyro::Decomposition::choose(base, ranks_per_sim, k);
  const auto report = check_divergence(des, base, d, k, machine, 1);
  EXPECT_TRUE(report.pass);
  for (const auto& p : report.phases) {
    if (p.significant) {
      EXPECT_TRUE(p.within) << p.phase;
    }
  }
}

TEST(Divergence, JsonRoundTripPreservesTheGate) {
  const auto in = gyro::Input::nl03c_like();
  const auto machine = perfmodel::nl03c_machine(32);
  const auto d = gyro::Decomposition::choose(in, 256);
  const auto predicted = perfmodel::estimate_phases(in, d, 1, machine);
  const auto report =
      check_divergence(synthetic_run(predicted, 1, 10.0), in, d, 1, machine, 1);
  const auto back = divergence_from_json(divergence_json(report));
  EXPECT_EQ(back.pass, report.pass);
  ASSERT_EQ(back.phases.size(), report.phases.size());
  for (std::size_t i = 0; i < back.phases.size(); ++i) {
    EXPECT_EQ(back.phases[i].phase, report.phases[i].phase);
    EXPECT_DOUBLE_EQ(back.phases[i].measured_s, report.phases[i].measured_s);
    EXPECT_EQ(back.phases[i].within, report.phases[i].within);
  }
}

TEST(Divergence, RejectsNonsenseTolerances) {
  const auto in = gyro::Input::nl03c_like();
  const auto machine = perfmodel::nl03c_machine(32);
  const auto d = gyro::Decomposition::choose(in, 256);
  mpi::RunResult run;
  EXPECT_THROW(check_divergence(run, in, d, 1, machine, 1, 0.5), Error);
  EXPECT_THROW(check_divergence(run, in, d, 1, machine, 0), Error);
}

// --- baseline harness -------------------------------------------------------

Json sample_payload() {
  Json series = Json::array();
  series.push(Json::object()
                  .set("nodes", Json(4))
                  .set("compute_s", Json(1.5))
                  .set("comm_s", Json(0.5)));
  series.push(Json::object()
                  .set("nodes", Json(8))
                  .set("compute_s", Json(0.8))
                  .set("comm_s", Json(0.7)));
  return Json::object()
      .set("schema", Json("xgyro.bench.node_scaling"))
      .set("nv", Json(16))
      .set("wallclock_rate", Json(12345.0))
      .set("series", std::move(series));
}

TEST(Baseline, FlattenProducesDottedNumericPaths) {
  const auto flat = flatten_numeric(sample_payload());
  // "schema" is a string leaf — not flattened.
  ASSERT_EQ(flat.size(), 8u);
  EXPECT_EQ(flat[0].first, "nv");
  EXPECT_EQ(flat[2].first, "series.0.nodes");
  EXPECT_EQ(flat[7].first, "series.1.comm_s");
  EXPECT_DOUBLE_EQ(flat[3].second, 1.5);
}

TEST(Baseline, IdentityComparisonPasses) {
  const Json payload = sample_payload();
  const Json baseline = make_baseline("node_scaling", payload);
  const auto check = check_baseline(baseline, payload);
  EXPECT_TRUE(check.pass);
  EXPECT_TRUE(check.errors.empty());
  EXPECT_EQ(check.bench, "node_scaling");
  EXPECT_EQ(check.metrics.size(), 8u);
}

TEST(Baseline, DetectsATenPercentRegression) {
  const Json payload = sample_payload();
  const Json baseline = make_baseline("node_scaling", payload);
  const Json slowed = scale_numeric_leaves(payload, 1.10);
  const auto check = check_baseline(baseline, slowed);
  EXPECT_FALSE(check.pass);
  bool flagged_compute = false;
  for (const auto& m : check.metrics) {
    if (m.path == "series.0.compute_s") {
      flagged_compute = true;
      EXPECT_FALSE(m.ok);
      EXPECT_NEAR(m.rel_diff, 0.10, 1e-9);
    }
  }
  EXPECT_TRUE(flagged_compute);
}

TEST(Baseline, ToleranceOverridesUseLongestSuffixMatch) {
  const Json payload = sample_payload();
  const Json baseline = make_baseline(
      "node_scaling", payload, 0.02,
      {{"comm_s", 0.5}, {"series.1.comm_s", 0.01}}, {});
  // +20% on series.0.comm_s is covered by the loose "comm_s" override; the
  // longest-suffix rule still pins series.1.comm_s to 1%, so its +2.9%
  // drift fails.
  Json s0 = Json::object()
                .set("nodes", Json(4))
                .set("compute_s", Json(1.5))
                .set("comm_s", Json(0.6));
  Json s1 = Json::object()
                .set("nodes", Json(8))
                .set("compute_s", Json(0.8))
                .set("comm_s", Json(0.72));
  Json series = Json::array();
  series.push(std::move(s0));
  series.push(std::move(s1));
  Json cand = Json::object()
                  .set("schema", Json("xgyro.bench.node_scaling"))
                  .set("nv", Json(16))
                  .set("wallclock_rate", Json(12345.0))
                  .set("series", std::move(series));
  const auto check = check_baseline(baseline, cand);
  EXPECT_FALSE(check.pass);
  for (const auto& m : check.metrics) {
    if (m.path == "series.0.comm_s") {
      EXPECT_TRUE(m.ok);  // 20% < 50%
    }
    if (m.path == "series.1.comm_s") {
      EXPECT_FALSE(m.ok);  // ~2.9% > 1%
    }
  }
}

TEST(Baseline, IgnoredPathsAreNeverCompared) {
  const Json payload = sample_payload();
  const Json baseline =
      make_baseline("node_scaling", payload, 0.02, {}, {"wallclock_rate"});
  // Only the ignored wall-clock metric changes — by a lot.
  Json c = Json::object();
  for (const auto& [key, value] : payload.items()) {
    c.set(key, key == "wallclock_rate" ? Json(99999.0) : value);
  }
  const auto check = check_baseline(baseline, c);
  EXPECT_TRUE(check.pass);
  for (const auto& m : check.metrics) {
    EXPECT_NE(m.path, "wallclock_rate");
  }
}

TEST(Baseline, StructuralDriftIsAnError) {
  const Json payload = sample_payload();
  const Json baseline = make_baseline("node_scaling", payload);
  Json missing = Json::object();
  for (const auto& [key, value] : payload.items()) {
    if (key != "nv") missing.set(key, value);
  }
  const auto check = check_baseline(baseline, missing);
  EXPECT_FALSE(check.pass);
  ASSERT_FALSE(check.errors.empty());
  EXPECT_NE(check.errors[0].find("nv"), std::string::npos);

  Json extra = Json::parse(payload.dump());
  extra.set("surprise_metric", Json(1.0));
  const auto check2 = check_baseline(baseline, extra);
  EXPECT_FALSE(check2.pass);
}

TEST(Baseline, SelfTestProvesRegressionDetection) {
  const Json baseline = make_baseline("node_scaling", sample_payload());
  const auto st = self_test_baseline(baseline);
  EXPECT_TRUE(st.identity_pass);
  EXPECT_TRUE(st.perturbed_fails);
  EXPECT_GT(st.gated_metrics, 0);
  EXPECT_TRUE(st.ok());
}

TEST(Baseline, SelfTestFailsWhenEverythingIsIgnored) {
  const Json baseline = make_baseline(
      "useless", sample_payload(), 0.02, {},
      {"nv", "series", "wallclock_rate"});
  const auto st = self_test_baseline(baseline);
  EXPECT_EQ(st.gated_metrics, 0);
  EXPECT_FALSE(st.ok());
}

TEST(Baseline, RejectsMalformedBaselineDocuments) {
  EXPECT_THROW(check_baseline(Json::object(), sample_payload()), Error);
  Json wrong = make_baseline("x", sample_payload());
  Json tampered = Json::object();
  for (const auto& [key, value] : wrong.items()) {
    tampered.set(key, key == "schema" ? Json("not.a.baseline") : value);
  }
  EXPECT_THROW(check_baseline(tampered, sample_payload()), Error);
}

}  // namespace
}  // namespace xg::analysis

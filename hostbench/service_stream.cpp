// The `service_stream` workload: a production-shaped Poisson request
// stream through CampaignService on testbox(8, 4), on the modeled fast
// path with a 1% seeded DES audit, EASY backfilling, adaptive batching
// windows, and the streaming validator + monitor sink consuming every
// event record as it is emitted. The campaign, perfmodel and telemetry
// layers run only here; the DES runs as many short few-rank audit jobs.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "campaign/monitor.hpp"
#include "campaign/service.hpp"
#include "probes.hpp"
#include "telemetry/events.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace hb {

namespace {

using xg::campaign::Request;
using xg::campaign::ServiceResult;

// 2·10⁴ requests at 6 per virtual second over four cmat signatures: long
// enough for ~10² sampled audits per run, short enough for several
// repetitions per invocation.
constexpr int kRequests = 20000;
constexpr double kRateHz = 6.0;
constexpr int kSignatures = 4;
constexpr double kAuditFrac = 0.01;
// The audit draw is fixed rather than seeded: an audited wide job costs
// far more host time than a small one, so a seeded draw over a handful of
// wide jobs would make the host cost swing with the seed. With the
// interleaved classes below, this draw audits ~195 jobs of which 4 are
// wide: the stream's 2% wide share.
constexpr std::uint64_t kAuditSeed = 7;
// Set-up is ~10 ms, so each repetition times it several times and reports
// the median.
constexpr int kSetupRounds = 5;
constexpr int kMinReps = 3;

/// Poisson arrivals of a fixed class mix: mostly small 1-node requests
/// across the signatures, 8% medium 1-node jobs and 2% wide jobs whose cmat
/// needs 2 nodes — the heterogeneity that makes placement policy matter.
/// Classes are interleaved by request index, so every seed puts the same
/// classes under the fixed audit draw; the seed drives the arrival times,
/// the signature draw, the gradients and the initial-condition seeds.
std::vector<Request> make_stream(std::uint64_t seed) {
  xg::Rng rng(seed);
  const StreamShapes shapes = stream_shapes();
  std::vector<Request> stream;
  stream.reserve(kRequests);
  double t = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    t += -std::log(1.0 - rng.next_double()) / kRateHz;
    Request r;
    r.arrival_s = t;
    r.tenant = xg::strprintf("t%d", i % 3);
    if (i % 50 == 25) {
      r.input = shapes.wide;
    } else if (i % 25 == 7 || i % 25 == 19) {
      r.input = shapes.medium;
    } else {
      r.input = shapes.small;
      int sig = 0;
      while (sig + 1 < kSignatures && rng.next_double() < 0.5) ++sig;
      r.input.collision.nu_ee = shapes.small.collision.nu_ee * (1.0 + 0.5 * sig);
    }
    r.input.species[0].a_ln_t = 2.0 + 0.125 * static_cast<double>(rng.next_below(64));
    r.input.seed = seed * 100000 + static_cast<std::uint64_t>(i);
    stream.push_back(std::move(r));
  }
  return stream;
}

xg::campaign::ServiceConfig production_config(xg::telemetry::EventSink* sink,
                                              double audit_frac) {
  xg::campaign::ServiceConfig cfg;
  cfg.cluster = xg::net::testbox(8, 4);
  cfg.max_queue_depth = kRequests;
  cfg.tenant_quota = kRequests;
  cfg.batching_window_s = 0.5;
  cfg.max_batch = 8;
  cfg.mode = xg::gyro::Mode::kModel;
  cfg.fast_path = true;
  cfg.audit_frac = audit_frac;
  cfg.audit_seed = kAuditSeed;
  cfg.placement = xg::campaign::PlacementPolicy::kBackfill;
  cfg.window_auto = true;
  cfg.events = sink;
  return cfg;
}

/// The streaming plane: validates every record inline and replays it into
/// the live monitor. With `timed`, each consume is timed per layer.
struct StreamingPlane : xg::telemetry::EventSink {
  explicit StreamingPlane(bool timed) : timed(timed) {}
  void write(const xg::telemetry::Json& record) override {
    ++records;
    if (!timed) {
      validator.consume(record);
      (void)monitor.consume(record);
      return;
    }
    const double t0 = wall_now();
    validator.consume(record);
    const double t1 = wall_now();
    (void)monitor.consume(record);
    validate_s += t1 - t0;
    monitor_s += wall_now() - t1;
  }
  bool timed;
  xg::telemetry::EventValidator validator;
  xg::campaign::ServiceMonitor monitor;
  double records = 0.0;
  double validate_s = 0.0;
  double monitor_s = 0.0;
};

struct ServiceRep {
  double wall_s = 0.0, cpu_s = 0.0, setup_s = 0.0, run_s = 0.0;
  double member_steps = 0.0;
  double completed = 0.0;
  Usage before, after;
  ServiceResult result;
};

/// One repetition: generate the stream and build the service (set-up,
/// timed kSetupRounds times), then run it. The repetition's wall time is
/// its last set-up plus the run. `sink` may be null (no observability
/// plane).
ServiceRep service_rep(std::uint64_t seed, StreamingPlane* sink,
                       double audit_frac, SpanRecorder& spans, int run) {
  ServiceRep s;
  const SpanScope rep(spans, "bench.rep", -1, run);
  std::vector<Request> stream;
  std::unique_ptr<xg::campaign::CampaignService> service;
  std::vector<double> setups;
  double t0 = 0.0;
  for (int i = 0; i < kSetupRounds; ++i) {
    // Release the previous round's stream and service untimed.
    stream = {};
    service.reset();
    const SpanScope setup(spans, "bench.setup", rep.id(), run);
    s.before = usage_now();
    t0 = wall_now();
    stream = make_stream(seed);
    service = std::make_unique<xg::campaign::CampaignService>(
        production_config(sink, audit_frac));
    setups.push_back(wall_now() - t0);
  }
  const double t1 = wall_now();
  {
    const SpanScope span(spans, "campaign.run", rep.id(), run);
    s.result = service->run(stream);
  }
  const double t2 = wall_now();
  s.after = usage_now();
  s.wall_s = t2 - t0;
  s.setup_s = median(setups);
  s.run_s = t2 - t1;
  s.cpu_s = s.after.cpu_s() - s.before.cpu_s();
  s.completed = s.result.completed;
  for (const auto& o : s.result.outcomes) {
    if (o.completed) {
      s.member_steps += stream[static_cast<size_t>(o.id)].input.n_steps_per_report;
    }
  }
  return s;
}

/// The production run's outputs: every request completed, the audit gate
/// passed, the streamed log validated clean, and the monitor's replay
/// agrees with the service's exact accounting.
void check_production(Checks& checks, const ServiceRep& s,
                      StreamingPlane& plane) {
  const ServiceResult& r = s.result;
  checks.count(kRequests, kRequests - r.completed, "requests completed");
  checks.expect(r.fast_path.at("audit").at("pass").as_bool(),
                "fast-path audit gate passes");
  checks.expect(r.jobs_audited > 0 && r.jobs_modeled > 0,
                "both modeled and audited jobs present");
  try {
    const auto ev = plane.validator.finish();
    checks.expect(ev.ended && !ev.aborted && ev.completed == kRequests &&
                      ev.jobs_modeled == r.jobs_modeled &&
                      ev.jobs_audited == r.jobs_audited,
                  xg::strprintf("event log clean and consistent (%d "
                                "completed, %d modeled, %d audited)",
                                ev.completed, ev.jobs_modeled,
                                ev.jobs_audited));
  } catch (const std::exception& e) {
    checks.expect(false, std::string("EventValidator::finish: ") + e.what());
  }
  const auto gate = plane.monitor.audit_gate();
  checks.expect(plane.monitor.jobs_modeled() == r.jobs_modeled &&
                    plane.monitor.jobs_audited() == r.jobs_audited &&
                    gate.pass == r.fast_path.at("audit").at("pass").as_bool(),
                "monitor replay agrees with the service accounting");
}

struct Counts {
  double jobs = 0, modeled = 0, audited = 0, completed = 0;
  double makespan_s = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const ServiceResult& r) {
  return {static_cast<double>(r.jobs.size()), static_cast<double>(r.jobs_modeled),
          static_cast<double>(r.jobs_audited), static_cast<double>(r.completed),
          r.makespan_s};
}

}  // namespace

StreamShapes stream_shapes() {
  StreamShapes s;
  s.small = xg::gyro::Input::small_test(1);
  s.medium = xg::gyro::Input::small_test(2);
  s.medium.n_radial = 4096;
  s.wide = xg::gyro::Input::small_test(2);
  s.wide.n_radial = 131072;
  return s;
}

void run_service_stream(const Options& opt, Checks& checks, Report& report,
                        SpanRecorder& spans) {
  SpanRecorder off(false);
  Counts reference;
  bool have_reference = false;
  const auto expect_repeat = [&](const ServiceResult& r, const char* what) {
    const Counts c = counts_of(r);
    if (!have_reference) {
      reference = c;
      have_reference = true;
      return;
    }
    checks.expect(c == reference,
                  xg::strprintf("%s repeats the first run's jobs, audits and "
                                "virtual makespan exactly", what));
  };

  // One checked production run. The first one of an invocation is the
  // warm-up and the reference the others must repeat.
  const auto production = [&](StreamingPlane& plane, SpanRecorder& rec,
                              int run, ServiceRep* out) {
    if (!checks.attempt("service_stream production run", [&] {
          *out = service_rep(opt.seed, &plane, kAuditFrac, rec, run);
        })) {
      return false;
    }
    check_production(checks, *out, plane);
    expect_repeat(out->result, "service_stream production run");
    return true;
  };
  StreamingPlane warm_plane(false);
  ServiceRep warm;
  if (!production(warm_plane, off, -1, &warm)) return;

  if (!opt.trace) {
    std::vector<ServiceRep> reps;
    std::vector<double> steal;
    const double t_start = wall_now();
    while (static_cast<int>(reps.size()) < kMinReps ||
           wall_now() - t_start < opt.seconds) {
      StreamingPlane plane(false);
      ServiceRep s;
      if (!production(plane, spans, static_cast<int>(reps.size()), &s)) break;
      steal.push_back(steal_frac(s.before, s.after, s.wall_s));
      s.result = ServiceResult{};  // keep only the timings
      reps.push_back(std::move(s));
    }
    const std::vector<bool> keep = low_steal(steal, kMinReps);
    std::vector<double> wall, cpu, setup, steps_rate, req_rate;
    for (size_t i = 0; i < reps.size(); ++i) {
      if (!keep[i]) continue;
      const ServiceRep& s = reps[i];
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
      setup.push_back(s.setup_s);
      steps_rate.push_back(s.member_steps / s.run_s);
      req_rate.push_back(s.completed / s.run_s);
    }
    report.set_samples("wall_s", "s", wall, "one repetition, setup included");
    report.set_samples("cpu_s", "s", cpu, "process user+sys per repetition");
    report.set_samples("setup_s", "s", setup,
                       "stream generation + service construction");
    report.set("peak_rss_mib", "MiB", usage_now().maxrss_mib);
    report.set_samples("member_steps_per_s", "steps/s", steps_rate,
                       "solver steps of completed requests per host second "
                       "of CampaignService::run");
    report.set_samples("requests_per_s", "req/s", req_rate,
                       "completed requests per host second of "
                       "CampaignService::run");
    return;
  }

  // Traced invocation: the production run with the sink timed, without
  // the sink, and with no audits at all, then untraced again as the
  // overhead base.
  StreamingPlane timed(true);
  ServiceRep traced;
  if (!production(timed, spans, 1, &traced)) return;
  checks.expect(timed.records == warm_plane.records,
                xg::strprintf("telemetry.records repeats (%.0f vs %.0f)",
                              timed.records, warm_plane.records));

  // The same production run without the sink, and the pure event loop:
  // audit_frac = 0 builds the same jobs and prices every one.
  ServiceRep nosink, loop;
  checks.attempt("service_stream sink-less runs", [&] {
    nosink = service_rep(opt.seed, nullptr, kAuditFrac, spans, 2);
    loop = service_rep(opt.seed, nullptr, 0.0, spans, 3);
  });
  expect_repeat(nosink.result, "sink-less run");
  checks.expect(loop.result.completed == kRequests &&
                    loop.result.jobs.size() == traced.result.jobs.size(),
                "audit_frac=0 run builds the same jobs");
  StreamingPlane plain(false);
  ServiceRep untraced;
  if (!production(plain, off, 4, &untraced)) return;

  const ServiceResult& r = traced.result;
  double runs = 0.0, ranks = 0.0, audited_steps = 0.0;
  int wide_audits = 0;
  std::vector<double> job_ranks;
  for (const auto& j : r.jobs) {
    if (!j.audited) continue;
    wide_audits += j.nodes > 1 ? 1 : 0;
    runs += j.slices;
    ranks += static_cast<double>(j.slices) * j.k * j.ranks_per_sim;
    job_ranks.push_back(static_cast<double>(j.k) * j.ranks_per_sim);
    audited_steps += static_cast<double>(j.k) *
                     r.outcomes[static_cast<size_t>(j.request_ids.front())]
                         .diagnostics.steps;
  }
  std::printf("audited jobs: %d, of which %d span more than one node\n",
              r.jobs_audited, wide_audits);
  const int probe_ranks = std::max(1, static_cast<int>(median(job_ranks)));
  const auto spawn = probe_spawn_join(xg::net::testbox(8, 4), probe_ranks);
  const std::string in_service =
      "absent: audited DES runs execute inside CampaignService::run, which "
      "returns no RunResult";
  report.set("simmpi.runs", "count", runs, "DES slices of audited jobs");
  report.set("simmpi.ranks", "count", ranks, "rank threads over those slices");
  for (const char* name : {"simmpi.msgs", "simmpi.collectives"}) {
    report.set(name, "count", 0.0, in_service);
  }
  for (const char* name : {"simmpi.payload_mib", "simmpi.virtual_mib"}) {
    report.set(name, "MiB", 0.0, in_service);
  }
  report.set("simmpi.msgs_per_s", "1/s", 0.0, in_service);
  report.set("simmpi.rank_blocked_s", "s", 0.0, in_service);
  report.set("simmpi.spawn_join_s", "s", spawn.per_s > 0 ? runs / spawn.per_s : 0.0,
             xg::strprintf("estimated: slices x probed empty run at %d ranks",
                           probe_ranks));
  report.set("simmpi.sys_cpu_s", "s", traced.after.sys_s - traced.before.sys_s);
  report.set("simmpi.ctx_switches", "count",
             traced.after.ctx_switches - traced.before.ctx_switches);
  report.set("gyro.steps", "count", audited_steps,
             "member steps of DES-audited jobs");
  report.set("perfmodel.estimate_phases_per_s", "1/s",
             probe_estimate_phases(xg::net::testbox(8, 4)).per_s,
             "probe over the stream's small/medium/wide shapes");
  report.set("campaign.jobs", "count", static_cast<double>(r.jobs.size()));
  report.set("campaign.jobs_modeled", "count", r.jobs_modeled);
  report.set("campaign.jobs_audited", "count", r.jobs_audited);
  report.set("campaign.loop_s", "s", loop.run_s,
             "CampaignService::run with audit_frac=0 and no sink");
  report.set("campaign.audit_des_s", "s", nosink.run_s - loop.run_s,
             "production run without sink, minus loop_s");
  report.set("campaign.monitor_s", "s", timed.monitor_s,
             "ServiceMonitor::consume, timed in the sink");
  report.set("telemetry.records", "count", timed.records);
  report.set("telemetry.validate_s", "s", timed.validate_s,
             "EventValidator::consume, timed in the sink");
  report.set("telemetry.records_per_s", "1/s",
             timed.validate_s > 0 ? timed.records / timed.validate_s : 0.0,
             "records validated per second of validate_s");
  report.set("telemetry.emit_s", "s",
             traced.run_s - nosink.run_s - timed.validate_s - timed.monitor_s,
             "sink-on run minus sink-off run, minus consume");
  report.set("trace.overhead_frac", "ratio",
             traced.wall_s / untraced.wall_s - 1.0,
             "traced over untraced repetition wall, minus one");
}

}  // namespace hb

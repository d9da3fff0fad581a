// The two DES workloads: `fig2_des` (the paper's Fig. 2 jobs in model mode,
// 256 rank threads with virtual payloads) and `ensemble_real` (a real-data
// shared-cmat ensemble whose time goes into the kernels).
//
// Both run benchmark-owned mirrors of the rank bodies of
// xgyro::run_cgyro_job / run_xgyro_job, so host timers can sit around
// initialize() and advance_report_interval() inside every rank. A mirror
// check compares the mirrors' virtual results with the public job drivers
// bit for bit, so the timed code cannot drift from what users run.
#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gyro/decomposition.hpp"
#include "gyro/simulation.hpp"
#include "perfmodel/perfmodel.hpp"
#include "probes.hpp"
#include "simmpi/runtime.hpp"
#include "util/format.hpp"
#include "workloads.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

namespace hb {

namespace {

using xg::gyro::Input;
using xg::gyro::Mode;
using xg::mpi::RunResult;
using xg::net::MachineSpec;
using xg::xgyro::EnsembleInput;

// Run lengths. fig2_des: the paper's 8-variant nl03c-like case on 32 nodes
// at a shortened reporting interval (the virtual schedule per step is what
// matters; more steps only lengthen each repetition). ensemble_real: k = 4
// members, one rank each, on a grid widened from small_test(2) until the
// shared cmat build is ~40% of a repetition and real-data kernels (RHS,
// nonlinear bracket with FFTs, collision apply) do the stepping.
constexpr int kFig2Steps = 10;
constexpr int kFig2Members = 8;
constexpr int kFig2Nodes = 32;
constexpr int kEnsembleMembers = 4;
constexpr int kEnsembleSteps = 10;
constexpr int kMinReps = 3;

struct RankTimes {
  double body0 = 0.0, body1 = 0.0;
  double init0 = 0.0, init1 = 0.0;
  double step1 = 0.0;
  double body_cpu = 0.0, step_cpu = 0.0;
};

/// What the benchmark observes about one run_simulation job.
struct JobRun {
  RunResult result;
  double t_call = 0.0, t_return = 0.0;
  std::vector<RankTimes> ranks;
  std::vector<std::uint64_t> member_hash;  ///< filled when hashing
  int members = 0;
  int steps_per_member = 0;
  bool ensemble = false;  ///< an XGYRO job (else CGYRO-style)

  [[nodiscard]] double wall() const { return t_return - t_call; }
  /// Thread spawn plus initialize(): until the last rank is ready to step.
  [[nodiscard]] double spawn_and_init() const {
    double m = t_call;
    for (const auto& r : ranks) m = std::max(m, r.init1);
    return m - t_call;
  }
  /// Longest initialize() of any rank (the shared cmat build in real mode).
  [[nodiscard]] double max_init() const {
    double m = 0.0;
    for (const auto& r : ranks) m = std::max(m, r.init1 - r.init0);
    return m;
  }
  /// Host interval in which ranks were stepping.
  [[nodiscard]] double stepping() const {
    double lo = ranks.front().init1, hi = 0.0;
    for (const auto& r : ranks) {
      lo = std::min(lo, r.init1);
      hi = std::max(hi, r.step1);
    }
    return hi - lo;
  }
  /// Σ over ranks of body wall not spent on the rank's own CPU.
  [[nodiscard]] double blocked() const {
    double s = 0.0;
    for (const auto& r : ranks) s += (r.body1 - r.body0) - r.body_cpu;
    return s;
  }
  [[nodiscard]] double step_cpu() const {
    double s = 0.0;
    for (const auto& r : ranks) s += r.step_cpu;
    return s;
  }
  [[nodiscard]] double member_steps() const {
    return static_cast<double>(members) * steps_per_member;
  }
};

/// How a job runs. Every job runs one report interval, as the job drivers'
/// default JobOptions do.
struct JobSpec {
  Mode mode = Mode::kModel;
  bool library_trace = false;  ///< RuntimeOptions::enable_trace
  bool hash = false;           ///< state_hash() every member after stepping
};

/// What a rank body needs to time itself and report its member's hash.
struct RankHooks {
  SpanRecorder& spans;
  int parent;
  int run;
  JobRun& job;
};

template <typename Body>
JobRun run_job(const MachineSpec& machine, int nranks, const JobSpec& js,
               int members, int steps, SpanRecorder& spans, int parent,
               int run, const Body& body) {
  JobRun job;
  job.ranks.resize(static_cast<size_t>(nranks));
  job.member_hash.assign(static_cast<size_t>(members), 0);
  job.members = members;
  job.steps_per_member = steps;
  xg::mpi::RuntimeOptions ropts;
  ropts.enable_trace = js.library_trace;
  const SpanScope run_span(spans, "simmpi.run_simulation", parent, run);
  job.t_call = wall_now();
  job.result = xg::mpi::run_simulation(
      machine, nranks,
      [&](xg::mpi::Proc& proc) {
        RankTimes& t = job.ranks[static_cast<size_t>(proc.world_rank())];
        t.body0 = wall_now();
        const double cpu0 = thread_cpu_now();
        {
          const SpanScope rank_span(spans, "simmpi.rank_body", run_span.id(),
                                    run);
          body(proc, RankHooks{spans, rank_span.id(), run, job}, t);
        }
        t.body_cpu = thread_cpu_now() - cpu0;
        t.body1 = wall_now();
      },
      ropts);
  job.t_return = wall_now();
  return job;
}

/// initialize(), then one report interval, timed on this rank.
template <typename Sim>
void init_and_step(Sim& sim, const RankHooks& h, RankTimes& t) {
  {
    const SpanScope s(h.spans, "gyro.initialize", h.parent, h.run);
    t.init0 = wall_now();
    sim.initialize();
    t.init1 = wall_now();
  }
  const double cpu0 = thread_cpu_now();
  {
    const SpanScope s(h.spans, "gyro.advance", h.parent, h.run);
    sim.advance_report_interval();
    t.step1 = wall_now();
  }
  t.step_cpu = thread_cpu_now() - cpu0;
}

/// Mirror of run_cgyro_job's rank body.
JobRun run_cgyro(const Input& input, const MachineSpec& machine, int nranks,
                 const JobSpec& js, SpanRecorder& spans, int parent, int run) {
  const auto decomp = xg::gyro::Decomposition::choose(input, nranks);
  return run_job(machine, nranks, js, 1, input.n_steps_per_report, spans,
                 parent, run,
                 [&](xg::mpi::Proc& proc, const RankHooks& h, RankTimes& t) {
                   xg::mpi::ScopedSpan job_span(proc, "cgyro.job");
                   auto layout = xg::gyro::make_cgyro_layout(proc.world(), decomp);
                   xg::gyro::Simulation sim(input, decomp, std::move(layout),
                                            proc, js.mode);
                   init_and_step(sim, h, t);
                   if (js.hash) {
                     const std::uint64_t v = sim.state_hash();
                     if (sim.sim_rank() == 0) h.job.member_hash[0] = v;
                   }
                 });
}

/// Mirror of run_xgyro_job's rank body.
JobRun run_xgyro(const EnsembleInput& ensemble, const MachineSpec& machine,
                 int ranks_per_sim, const JobSpec& js, SpanRecorder& spans,
                 int parent, int run) {
  const auto decomp = xg::gyro::Decomposition::choose(
      ensemble.members.front(), ranks_per_sim, ensemble.n_sims());
  JobRun job = run_job(
      machine, ensemble.n_sims() * ranks_per_sim, js, ensemble.n_sims(),
      ensemble.members.front().n_steps_per_report, spans, parent, run,
      [&](xg::mpi::Proc& proc, const RankHooks& h, RankTimes& t) {
        xg::mpi::ScopedSpan job_span(proc, "xgyro.job");
        xg::xgyro::EnsembleDriver driver(ensemble, decomp, proc, js.mode);
        init_and_step(driver, h, t);
        if (js.hash) {
          const std::uint64_t v = driver.simulation().state_hash();
          if (driver.simulation().sim_rank() == 0) {
            h.job.member_hash[static_cast<size_t>(driver.sim_index())] = v;
          }
        }
      });
  job.ensemble = true;
  return job;
}

/// Every member of `ensemble` run as its own one-rank CGYRO simulation on a
/// private communicator. The members never communicate, so each is exactly
/// a standalone run; sharing one run_simulation lets them use the cores.
JobRun run_standalone_members(const EnsembleInput& ensemble,
                              SpanRecorder& spans, int parent, int run) {
  const int k = ensemble.n_sims();
  JobSpec js;
  js.mode = Mode::kReal;
  js.hash = true;
  const auto decomp =
      xg::gyro::Decomposition::choose(ensemble.members.front(), 1);
  return run_job(
      xg::net::testbox(1, k), k, js, k,
      ensemble.members.front().n_steps_per_report, spans, parent, run,
      [&](xg::mpi::Proc& proc, const RankHooks& h, RankTimes& t) {
        const int m = proc.world_rank();
        auto alone = proc.world().split(m, 0, "standalone");
        auto layout = xg::gyro::make_cgyro_layout(alone, decomp);
        xg::gyro::Simulation sim(ensemble.members[static_cast<size_t>(m)],
                                 decomp, std::move(layout), proc, js.mode);
        init_and_step(sim, h, t);
        h.job.member_hash[static_cast<size_t>(m)] = sim.state_hash();
      });
}

/// Bitwise comparison of two runs' virtual results: makespan and, per rank
/// and phase, comm/compute seconds and message/byte counts.
bool same_virtual(const RunResult& a, const RunResult& b, std::string* why) {
  if (a.makespan_s != b.makespan_s) {
    *why = xg::strprintf("makespan %.17g vs %.17g", a.makespan_s, b.makespan_s);
    return false;
  }
  if (a.ranks.size() != b.ranks.size()) {
    *why = "rank count differs";
    return false;
  }
  for (size_t r = 0; r < a.ranks.size(); ++r) {
    const auto& pa = a.ranks[r].phases;
    const auto& pb = b.ranks[r].phases;
    if (pa.size() != pb.size()) {
      *why = xg::strprintf("rank %zu phase set differs", r);
      return false;
    }
    for (const auto& [name, sa] : pa) {
      const auto it = pb.find(name);
      if (it == pb.end() || sa.comm_s != it->second.comm_s ||
          sa.compute_s != it->second.compute_s ||
          sa.msgs_sent != it->second.msgs_sent ||
          sa.bytes_sent != it->second.bytes_sent) {
        *why = xg::strprintf("rank %zu phase %s differs", r, name.c_str());
        return false;
      }
    }
  }
  return true;
}

void expect_same_virtual(Checks& checks, const RunResult& a,
                         const RunResult& b, const std::string& what) {
  std::string why;
  const bool ok = same_virtual(a, b, &why);
  checks.expect(ok, what + (ok ? "" : ": " + why));
}

double total_msgs(const RunResult& r) {
  double n = 0.0;
  for (const auto& rank : r.ranks) n += static_cast<double>(rank.total().msgs_sent);
  return n;
}

double total_mib(const RunResult& r) {
  double b = 0.0;
  for (const auto& rank : r.ranks) b += static_cast<double>(rank.total().bytes_sent);
  return b / (1024.0 * 1024.0);
}

double transpose_spans(const RunResult& r) {
  double n = 0.0;
  for (const auto& s : r.spans) {
    if (s.name.find("transpose") != std::string::npos) n += 1.0;
  }
  return n;
}

/// One repetition's end-to-end sample.
struct RepSample {
  double wall_s = 0.0, cpu_s = 0.0, setup_s = 0.0;
  double stepping_s = 0.0, member_steps = 0.0, sims = 0.0;
  bool warmup = false;  ///< run first to fill caches; checked, not sampled
  Usage before, after;
  std::vector<JobRun> jobs;
};

using RepFn = std::function<RepSample(SpanRecorder&, int run)>;

RepSample timed_rep(const RepFn& fn, SpanRecorder& spans, int run) {
  const Usage u0 = usage_now();
  const double t0 = wall_now();
  RepSample s = fn(spans, run);
  s.wall_s = wall_now() - t0;
  s.after = usage_now();
  s.before = u0;
  s.cpu_s = s.after.cpu_s() - u0.cpu_s();
  return s;
}

/// One untraced repetition that lets caches fill and lazy set-up finish.
std::vector<RepSample> warm_up(Checks& checks, const RepFn& fn,
                               const std::string& what) {
  SpanRecorder off(false);
  std::vector<RepSample> reps(1);
  if (!checks.attempt(what + " warm-up repetition",
                      [&] { reps[0] = timed_rep(fn, off, -1); })) {
    reps.clear();
  }
  if (!reps.empty()) reps[0].warmup = true;
  return reps;
}

double steal_of(const RepSample& s) {
  return steal_frac(s.before, s.after, s.wall_s);
}

/// Untraced invocation: a warm-up, then repetitions until `seconds`
/// elapse; the end-to-end metrics are medians over the latter.
std::vector<RepSample> run_reps(const Options& opt, Checks& checks,
                                const RepFn& fn, SpanRecorder& spans,
                                const std::string& what) {
  std::vector<RepSample> reps = warm_up(checks, fn, what);
  if (reps.empty()) return reps;
  const double t_start = wall_now();
  while (static_cast<int>(reps.size()) <= kMinReps ||
         wall_now() - t_start < opt.seconds) {
    RepSample s;
    const bool ok = checks.attempt(
        xg::strprintf("%s repetition %zu", what.c_str(), reps.size()),
        [&] { s = timed_rep(fn, spans, static_cast<int>(reps.size())); });
    if (!ok) break;
    reps.push_back(std::move(s));
  }
  return reps;
}

void report_end_to_end(const std::vector<RepSample>& reps, Report& report,
                       const std::string& setup_note) {
  std::vector<const RepSample*> timed;
  std::vector<double> steal;
  for (const auto& s : reps) {
    if (s.warmup) continue;
    timed.push_back(&s);
    steal.push_back(steal_of(s));
  }
  const std::vector<bool> keep = low_steal(steal, kMinReps);
  std::vector<double> wall, cpu, setup, steps_rate, sims_rate;
  for (size_t i = 0; i < timed.size(); ++i) {
    if (!keep[i]) continue;
    const RepSample& s = *timed[i];
    wall.push_back(s.wall_s);
    cpu.push_back(s.cpu_s);
    setup.push_back(s.setup_s);
    steps_rate.push_back(s.member_steps / s.stepping_s);
    sims_rate.push_back(s.sims / s.wall_s);
  }
  report.set_samples("wall_s", "s", wall, "one repetition, setup included");
  report.set_samples("cpu_s", "s", cpu, "process user+sys per repetition");
  report.set_samples("setup_s", "s", setup, setup_note);
  report.set("peak_rss_mib", "MiB", usage_now().maxrss_mib);
  report.set_samples("member_steps_per_s", "steps/s", steps_rate,
                     "member solver steps per host second of stepping");
  report.set_samples("requests_per_s", "req/s", sims_rate,
                     "member simulations completed per host second");
}

/// Per-layer metrics of one traced DES repetition.
void layer_metrics(const RepSample& s, const SpanRecorder& spans, int run,
                   Mode mode, std::map<std::string, double>* out) {
  double runs = 0, ranks = 0, msgs = 0, mib = 0, colls = 0, walls = 0;
  double blocked = 0, init = 0, step_wall = 0, step_cpu = 0, steps = 0;
  double cgyro_s = 0, xgyro_s = 0;
  for (const auto& j : s.jobs) {
    (j.ensemble ? xgyro_s : cgyro_s) += j.wall();
    runs += 1.0;
    ranks += static_cast<double>(j.ranks.size());
    msgs += total_msgs(j.result);
    mib += total_mib(j.result);
    colls += static_cast<double>(j.result.collectives_checked);
    walls += j.wall();
    blocked += j.blocked();
    init += j.max_init();
    step_wall += j.stepping();
    step_cpu += j.step_cpu();
    steps += j.member_steps();
  }
  auto& m = *out;
  m["simmpi.runs"] = runs;
  m["simmpi.ranks"] = ranks;
  m["simmpi.msgs"] = msgs;
  m["simmpi.payload_mib"] = mode == Mode::kReal ? mib : 0.0;
  m["simmpi.virtual_mib"] = mode == Mode::kModel ? mib : 0.0;
  m["simmpi.collectives"] = colls;
  m["simmpi.msgs_per_s"] = msgs / walls;
  const auto totals = spans.totals(run);
  const auto it = totals.find("simmpi.run_simulation");
  m["simmpi.spawn_join_s"] = it != totals.end() ? it->second.self_s : 0.0;
  m["simmpi.rank_blocked_s"] = blocked;
  m["simmpi.sys_cpu_s"] = s.after.sys_s - s.before.sys_s;
  m["simmpi.ctx_switches"] = s.after.ctx_switches - s.before.ctx_switches;
  m["gyro.init_s"] = init;
  m["gyro.step_wall_s"] = step_wall;
  m["gyro.step_cpu_s"] = step_cpu;
  m["gyro.steps"] = steps;
  m["xgyro.cgyro_job_s"] = cgyro_s;
  m["xgyro.xgyro_job_s"] = xgyro_s;
}

/// Unit of a per-layer metric, from its name's suffix.
std::string unit_of(const std::string& name) {
  const auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("_per_s")) return "1/s";
  if (ends("_s")) return "s";
  if (ends("_mib")) return "MiB";
  return "count";
}

const char* const kCountMetrics[] = {"simmpi.runs", "simmpi.ranks",
                                     "simmpi.msgs", "simmpi.payload_mib",
                                     "simmpi.virtual_mib", "simmpi.collectives",
                                     "gyro.steps"};

/// Traced invocation: after a warm-up, untraced and traced repetitions
/// alternate (U T U T). The per-layer timings are medians over the traced
/// ones, the counts must repeat exactly, and the tracing overhead is traced
/// over untraced wall. Returns the repetitions for the correctness checks.
std::vector<RepSample> run_traced_reps(Checks& checks, const RepFn& fn,
                                       SpanRecorder& spans, Mode mode,
                                       Report& report, const std::string& what) {
  SpanRecorder off(false);
  std::vector<RepSample> reps = warm_up(checks, fn, what);
  if (reps.empty()) return reps;
  std::vector<double> untraced, traced;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> first_counts;
  layer_metrics(reps[0], off, -1, mode, &first_counts);
  for (int i = 0; i < 4; ++i) {
    const bool on = i % 2 == 1;
    RepSample s;
    if (!checks.attempt(xg::strprintf("%s traced-mode repetition %d",
                                      what.c_str(), i),
                        [&] { s = timed_rep(fn, on ? spans : off, i); })) {
      return reps;
    }
    (on ? traced : untraced).push_back(s.wall_s);
    std::map<std::string, double> m;
    layer_metrics(s, on ? spans : off, i, mode, &m);
    for (const char* c : kCountMetrics) {
      checks.expect(m[c] == first_counts[c],
                    xg::strprintf("count %s repeats (%.17g vs %.17g)", c, m[c],
                                  first_counts[c]));
    }
    if (on) {
      for (const auto& [k, v] : m) samples[k].push_back(v);
    }
    reps.push_back(std::move(s));
  }
  for (const auto& [k, v] : samples) report.set_samples(k, unit_of(k), v);
  report.set("trace.overhead_frac", "ratio",
             median(traced) / median(untraced) - 1.0,
             "traced over untraced repetition wall, minus one");
  return reps;
}

}  // namespace

// ---------------------------------------------------------------------------
// fig2_des

void run_fig2_des(const Options& opt, Checks& checks, Report& report,
                  SpanRecorder& spans) {
  Input base = Input::nl03c_like();
  base.n_steps_per_report = kFig2Steps;
  // The seed picks the gradient drives and initial-condition seeds, which
  // are sweep-safe: the virtual schedule is the same for every seed.
  const double drive = 2.0 + 0.01 * static_cast<double>(opt.seed % 32);
  base.species[0].a_ln_t = drive;
  base.seed = opt.seed;
  const auto ensemble =
      EnsembleInput::sweep(base, kFig2Members, [&](Input& in, int i) {
        in.species[0].a_ln_t = drive + 0.25 * i;
        in.seed = opt.seed * 1000 + static_cast<std::uint64_t>(i);
        in.tag = xg::strprintf("nl03c_v%d", i);
      });
  const auto machine = xg::perfmodel::nl03c_machine(kFig2Nodes);
  const int nranks = machine.total_ranks();
  JobSpec js;
  js.mode = Mode::kModel;

  const RepFn rep = [&](SpanRecorder& rec, int run) {
    const SpanScope span(rec, "bench.rep", -1, run);
    RepSample s;
    s.jobs.push_back(run_cgyro(base, machine, nranks, js, rec, span.id(), run));
    s.jobs.push_back(run_xgyro(ensemble, machine, nranks / kFig2Members, js,
                               rec, span.id(), run));
    for (const auto& j : s.jobs) {
      s.setup_s += j.spawn_and_init();
      s.stepping_s += j.stepping();
      s.member_steps += j.member_steps();
      s.sims += j.members;
    }
    return s;
  };

  std::vector<RepSample> reps;
  if (opt.trace) {
    reps = run_traced_reps(checks, rep, spans, Mode::kModel, report,
                           "fig2_des");
    // Transposes are counted on the library's own virtual-time spans, in a
    // separate run with the runtime's tracing on.
    JobSpec counted = js;
    counted.library_trace = true;
    SpanRecorder off(false);
    double transposes = 0.0;
    checks.attempt("fig2_des transpose count", [&] {
      const auto cg = run_cgyro(base, machine, nranks, counted, off, -1, -1);
      const auto xg = run_xgyro(ensemble, machine, nranks / kFig2Members,
                                counted, off, -1, -1);
      transposes = transpose_spans(cg.result) + transpose_spans(xg.result);
    });
    report.set("tensor.transposes", "count", transposes,
               "transpose spans of a runtime-traced repetition");
    const auto decomp = xg::gyro::Decomposition::choose(base, nranks);
    const std::uint64_t elem = sizeof(std::complex<double>);
    const std::uint64_t field_bytes = static_cast<std::uint64_t>(base.nc()) *
                                      (base.nt() / decomp.pt) * elem *
                                      static_cast<std::uint64_t>(base.n_field);
    const std::uint64_t block_bytes =
        static_cast<std::uint64_t>(base.nv() / decomp.pv) *
        (base.nc() / decomp.pv) * (base.nt() / decomp.pt) * elem;
    std::printf("probe shapes: str AllReduce %d ranks x %llu B, coll "
                "AllToAll %d ranks x %llu B per pair\n",
                decomp.pv, static_cast<unsigned long long>(field_bytes),
                decomp.pv, static_cast<unsigned long long>(block_bytes));
    report.set("simmpi.allreduce_per_s", "1/s",
               probe_allreduce(machine, decomp.pv, field_bytes).per_s,
               "probe at the CGYRO str AllReduce shape");
    report.set("simmpi.alltoall_per_s", "1/s",
               probe_alltoall(machine, decomp.pv, block_bytes).per_s,
               "probe at the CGYRO str->coll transpose shape");
  } else {
    reps = run_reps(opt, checks, rep, spans, "fig2_des");
    report_end_to_end(reps, report,
                      "thread spawn + initialize(), both jobs");
  }

  // Correctness, outside the timed repetitions. Every repetition must
  // reproduce the first one's virtual results exactly.
  if (reps.empty()) return;
  const RunResult& cg = reps.front().jobs[0].result;
  const RunResult& xgr = reps.front().jobs[1].result;
  for (size_t i = 1; i < reps.size(); ++i) {
    expect_same_virtual(checks, reps[i].jobs[0].result, cg,
                        xg::strprintf("fig2_des CGYRO repetition %zu virtual "
                                      "results identical", i));
    expect_same_virtual(checks, reps[i].jobs[1].result, xgr,
                        xg::strprintf("fig2_des XGYRO repetition %zu virtual "
                                      "results identical", i));
  }
  // Fig. 2 shape (virtual clock, printed as information; only the shape is
  // checked here, the numbers stay gated by the BENCH_*.json files).
  const double k = kFig2Members;
  const double cg_total = k * xg::xgyro::report_step_seconds(cg);
  const double xg_total = xg::xgyro::report_step_seconds(xgr);
  const double cg_str = k * xg::xgyro::phase_seconds(cg, "str_comm");
  const double xg_str = xg::xgyro::phase_seconds(xgr, "str_comm");
  std::printf("fig2 (virtual, info): CGYRO sum %.6f s vs XGYRO %.6f s per "
              "report (%.3fx); str_comm %.6f s vs %.6f s; %zu collectives "
              "invariant-checked\n",
              cg_total, xg_total, cg_total / xg_total, cg_str, xg_str,
              static_cast<size_t>(cg.collectives_checked +
                                  xgr.collectives_checked));
  checks.expect(xg_total < cg_total && xg_str < cg_str,
                "fig2_des shape: XGYRO total and str_comm below the CGYRO sum");
  checks.expect(cg.collectives_checked > 0 && xgr.collectives_checked > 0,
                "fig2_des invariant monitor checked collectives");

  // Mirror check against the public job drivers.
  checks.attempt("fig2_des mirror check", [&] {
    xg::xgyro::JobOptions jo;
    jo.mode = Mode::kModel;
    expect_same_virtual(checks, xg::xgyro::run_cgyro_job(base, machine, nranks, jo),
                        cg, "fig2_des mirror == run_cgyro_job");
    expect_same_virtual(
        checks,
        xg::xgyro::run_xgyro_job(ensemble, machine, nranks / kFig2Members, jo),
        xgr, "fig2_des mirror == run_xgyro_job");
  });
}

// ---------------------------------------------------------------------------
// ensemble_real

void run_ensemble_real(const Options& opt, Checks& checks, Report& report,
                       SpanRecorder& spans) {
  Input base = Input::small_test(2);
  base.n_radial = 16;
  base.n_theta = 8;
  base.n_toroidal = 8;
  base.n_energy = 8;
  base.n_xi = 8;
  base.nonlinear = true;
  base.n_steps_per_report = kEnsembleSteps;
  base.validate();
  const double drive = 2.0 + 0.01 * static_cast<double>(opt.seed % 32);
  const auto ensemble =
      EnsembleInput::sweep(base, kEnsembleMembers, [&](Input& in, int i) {
        in.species[0].a_ln_t = drive + 0.25 * i;
        in.seed = opt.seed * 1000 + static_cast<std::uint64_t>(i);
        in.tag = xg::strprintf("ensemble_m%d", i);
      });
  const auto machine = xg::net::testbox(1, kEnsembleMembers);
  JobSpec js;
  js.mode = Mode::kReal;

  const double nv = base.nv();
  const double cells = static_cast<double>(base.nc()) * base.nt();
  const double cmat_mib = cells * nv * nv * sizeof(float) / (1024.0 * 1024.0);
  std::printf("ensemble_real: nc=%d nv=%d nt=%d, k=%d; shared cmat %.0f MiB "
              "(%.0f MiB per rank) against a 105 MiB shared L3\n",
              base.nc(), base.nv(), base.nt(), kEnsembleMembers, cmat_mib,
              cmat_mib / kEnsembleMembers);

  const RepFn rep = [&](SpanRecorder& rec, int run) {
    const SpanScope span(rec, "bench.rep", -1, run);
    RepSample s;
    s.jobs.push_back(run_xgyro(ensemble, machine, 1, js, rec, span.id(), run));
    const JobRun& j = s.jobs.back();
    s.setup_s = j.max_init();
    s.stepping_s = j.stepping();
    s.member_steps = j.member_steps();
    s.sims = j.members;
    return s;
  };

  SpanRecorder off(false);
  std::vector<RepSample> reps;
  if (opt.trace) {
    reps = run_traced_reps(checks, rep, spans, Mode::kReal, report,
                           "ensemble_real");
    JobSpec counted = js;
    counted.library_trace = true;
    double transposes = 0.0;
    checks.attempt("ensemble_real transpose count", [&] {
      transposes = transpose_spans(
          run_xgyro(ensemble, machine, 1, counted, off, -1, -1).result);
    });
    report.set("tensor.transposes", "count", transposes,
               "transpose spans of a runtime-traced repetition");
    report.set("tensor.transpose_gib_per_s", "GiB/s",
               probe_transpose(base, kEnsembleMembers).per_s,
               "probe: real-data str<->coll round trips at this layout");
    report.set("collision.build_cells_per_s", "1/s",
               probe_cmat_build(base).per_s, "probe at nv of this grid");
    report.set("la.lu_solve_per_s", "1/s", probe_lu_solve(base.nv()).per_s,
               "probe at nv of this grid");
    const int rank_cells =
        base.nc() / kEnsembleMembers * base.nt();  // per-rank cmat slice
    report.set("collision.apply_cells_per_s", "1/s",
               probe_cmat_apply(base.nv(), rank_cells, kEnsembleMembers).per_s,
               "probe over one rank's cmat slice, k right-hand sides");
    report.set("fft.transforms_per_s", "1/s", probe_fft(base.nt()).per_s,
               "probe at the solver's nt");
    // Computed, not measured: one collision step of the whole ensemble.
    const double flops = cells * 4.0 * nv * nv * kEnsembleMembers;
    const double bytes =
        cells * (nv * nv * sizeof(float) +
                 2.0 * nv * kEnsembleMembers * sizeof(std::complex<double>));
    report.set("collision.apply_flops", "flop", flops,
               "computed per ensemble collision step");
    report.set("collision.apply_bytes", "B", bytes,
               "computed per ensemble collision step (cmat once + panels)");
    report.set("collision.apply_flop_per_byte", "flop/B", flops / bytes,
               "computed");
  } else {
    reps = run_reps(opt, checks, rep, spans, "ensemble_real");
    report_end_to_end(reps, report, "max over ranks of initialize()");
  }

  if (reps.empty()) return;
  const RunResult& first = reps.front().jobs[0].result;
  for (size_t i = 1; i < reps.size(); ++i) {
    expect_same_virtual(checks, reps[i].jobs[0].result, first,
                        xg::strprintf("ensemble_real repetition %zu virtual "
                                      "results identical", i));
  }
  checks.attempt("ensemble_real mirror check", [&] {
    xg::xgyro::JobOptions jo;
    jo.mode = Mode::kReal;
    expect_same_virtual(checks,
                        xg::xgyro::run_xgyro_job(ensemble, machine, 1, jo),
                        first, "ensemble_real mirror == run_xgyro_job");
  });
  // Sharing cmat must not change any member's physics: each member's final
  // state hash equals the same member run standalone.
  checks.attempt("ensemble_real standalone hashes", [&] {
    JobSpec hashed = js;
    hashed.hash = true;
    const JobRun shared = run_xgyro(ensemble, machine, 1, hashed, off, -1, -1);
    const JobRun alone = run_standalone_members(ensemble, off, -1, -1);
    for (int m = 0; m < kEnsembleMembers; ++m) {
      const auto a = shared.member_hash[static_cast<size_t>(m)];
      const auto b = alone.member_hash[static_cast<size_t>(m)];
      checks.expect(a == b && a != 0,
                    xg::strprintf("member %d state_hash %016llx shared vs "
                                  "%016llx standalone",
                                  m, static_cast<unsigned long long>(a),
                                  static_cast<unsigned long long>(b)));
    }
    if (opt.trace) {
      report.set("xgyro.cgyro_job_s", "s", alone.wall(),
                 "the members run standalone, side by side");
    }
  });
}

}  // namespace hb

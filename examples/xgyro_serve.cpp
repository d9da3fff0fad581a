// xgyro_serve — the online campaign service, driven from a synthetic
// arrival stream:
//
//   ./examples/xgyro_serve --gen "seed=7;n=12;rate=2;sigs=3;tenants=2"
//       --nodes 2 --ranks-per-node 4 --window 1.0
//
// Requests are admitted (or shed), batched by cmat fingerprint inside the
// batching window, bin-packed onto the simulated cluster, and executed
// through the deterministic DES. The summary prints throughput
// (jobs/requests per virtual hour) and exact queue-wait percentiles;
// --report writes the full xgyro.service JSON document.
//
// Exit status:
//   0  every admitted request completed (rejections are not errors)
//   1  usage, input, or configuration error
//   2  at least one admitted request failed (recovery budget exhausted)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include <memory>

#include "campaign/monitor.hpp"
#include "campaign/service.hpp"
#include "simnet/machine.hpp"
#include "telemetry/events.hpp"
#include "telemetry/json.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace {

struct Options {
  std::string gen;
  int nodes = 2;
  int ranks_per_node = 4;
  double window_s = 1.0;
  int max_batch = 8;
  bool batching = true;
  int queue_depth = 64;
  int tenant_quota = 16;
  int intervals = 1;
  std::string mode = "real";
  int nodes_per_job = 0;
  std::string checkpoint_dir;
  int quantum = 1;
  int max_recoveries = 3;
  std::string report_out;
  std::string metrics_out;
  std::string report_dir;
  std::string events_out;
  double metrics_every = 0.0;
  std::string slo;
  bool fast_path = false;
  double audit_frac = 0.05;
  bool audit_frac_set = false;
  long audit_seed = 1;
  bool backfill = false;
  bool window_auto = false;
};

void print_help() {
  std::printf(
      "usage: xgyro_serve --gen SPEC [options]\n\n"
      "  --gen SPEC          synthetic arrival stream, e.g.\n"
      "                      \"seed=7;n=12;rate=2;tenants=2;sigs=3;prios=2;"
      "skew=1;kills=0.1\"\n"
      "  --nodes N           cluster nodes [2]\n"
      "  --ranks-per-node N  ranks per node [4]\n"
      "  --window S          batching window in virtual seconds [1.0]\n"
      "  --max-batch N       batch closes early at this size [8]\n"
      "  --no-batching       ablation: one job per request\n"
      "  --queue-depth N     admitted-but-waiting request cap [64]\n"
      "  --tenant-quota N    in-flight request cap per tenant [16]\n"
      "  --intervals N       reporting intervals per request [1]\n"
      "  --mode real|model   real data or paper-scale model mode [real]\n"
      "  --nodes-per-job N   pin jobs to N nodes (0 = cost-optimal) [0]\n"
      "  --checkpoint-dir DIR  per-job snapshots under DIR/job-<id>;\n"
      "                      enables slice preemption and kill recovery\n"
      "  --quantum N         report intervals per execution slice [1]\n"
      "  --max-recoveries N  recoveries allowed per job [3]\n"
      "  --report FILE       write the xgyro.service JSON document\n"
      "  --metrics-out FILE  write the metrics snapshot (xgyro.metrics)\n"
      "  --report-dir DIR    write per-job RunReports (job-<id>.report.json)\n"
      "  --events-out FILE   stream the xgyro.events JSONL lifecycle log;\n"
      "                      flushed per record, so an aborted run leaves a\n"
      "                      valid partial log ending in service.aborted\n"
      "  --metrics-every S   emit a monitor.snapshot record every S virtual\n"
      "                      seconds (needs --events-out) [0 = off]\n"
      "  --slo SPEC          queue-wait SLO with burn-rate alerts, e.g.\n"
      "                      \"wait=100;target=0.9;window=500;burn=2\"\n"
      "                      (needs --events-out)\n"
      "  --fast-path         price jobs from the perfmodel instead of\n"
      "                      DES-executing them; a seeded sample still runs\n"
      "                      the DES and feeds the audit divergence gate\n"
      "  --audit-frac F      fraction of jobs DES-audited under --fast-path\n"
      "                      [0.05]; fault-carrying jobs are always audited\n"
      "  --audit-seed N      seed for the per-job audit draw [1]\n"
      "  --backfill          EASY backfilling: jobs behind a blocked head\n"
      "                      start only if they cannot delay its predicted\n"
      "                      start (default: greedy first-fit)\n"
      "  --window-auto       per-signature adaptive batching window tuned\n"
      "                      from the observed arrival mix (needs windowed\n"
      "                      batching: --window > 0, --max-batch > 1)\n"
      "  --help              print this reference and exit\n"
      "\n"
      "exit status:\n"
      "  0  every admitted request completed (rejections are not errors)\n"
      "  1  usage, input, or configuration error\n"
      "  2  at least one admitted request failed (recovery exhausted),\n"
      "     or the fast-path audit gate failed\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::set<std::string> seen;
  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      throw xg::InputError(xg::strprintf("missing value after %s", argv[i]));
    }
    return std::string(argv[i + 1]);
  };
  auto once = [&](const std::string& flag) {
    if (!seen.insert(flag).second) {
      throw xg::InputError(
          xg::strprintf("duplicate %s (give each option at most once)",
                        flag.c_str()));
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--gen") {
      once(a);
      o.gen = need_value(i++);
    } else if (a == "--nodes") {
      once(a);
      o.nodes = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--ranks-per-node") {
      once(a);
      o.ranks_per_node = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--window") {
      once(a);
      o.window_s = xg::parse_flag_double(a, need_value(i++));
    } else if (a == "--max-batch") {
      once(a);
      o.max_batch = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--no-batching") {
      once(a);
      o.batching = false;
    } else if (a == "--queue-depth") {
      once(a);
      o.queue_depth = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--tenant-quota") {
      once(a);
      o.tenant_quota = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--intervals") {
      once(a);
      o.intervals = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--mode") {
      once(a);
      o.mode = need_value(i++);
    } else if (a == "--nodes-per-job") {
      once(a);
      o.nodes_per_job = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--checkpoint-dir") {
      once(a);
      o.checkpoint_dir = need_value(i++);
    } else if (a == "--quantum") {
      once(a);
      o.quantum = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--max-recoveries") {
      once(a);
      o.max_recoveries = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--report") {
      once(a);
      o.report_out = need_value(i++);
    } else if (a == "--metrics-out") {
      once(a);
      o.metrics_out = need_value(i++);
    } else if (a == "--report-dir") {
      once(a);
      o.report_dir = need_value(i++);
    } else if (a == "--events-out") {
      once(a);
      o.events_out = need_value(i++);
    } else if (a == "--metrics-every") {
      once(a);
      o.metrics_every = xg::parse_flag_double(a, need_value(i++));
    } else if (a == "--slo") {
      once(a);
      o.slo = need_value(i++);
    } else if (a == "--fast-path") {
      once(a);
      o.fast_path = true;
    } else if (a == "--audit-frac") {
      once(a);
      o.audit_frac = xg::parse_flag_double(a, need_value(i++));
      o.audit_frac_set = true;
    } else if (a == "--audit-seed") {
      once(a);
      o.audit_seed = xg::parse_flag_int(a, need_value(i++));
    } else if (a == "--backfill") {
      once(a);
      o.backfill = true;
    } else if (a == "--window-auto") {
      once(a);
      o.window_auto = true;
    } else if (a == "--help" || a == "-h") {
      print_help();
      std::exit(0);
    } else {
      throw xg::InputError(
          xg::strprintf("unknown option '%s' (see --help)", a.c_str()));
    }
  }
  if (o.gen.empty()) {
    throw xg::InputError("--gen SPEC is required (see --help)");
  }
  if (o.mode != "real" && o.mode != "model") {
    throw xg::InputError(
        xg::strprintf("--mode: '%s' is not real|model", o.mode.c_str()));
  }
  if (o.nodes < 1) throw xg::InputError("--nodes must be >= 1");
  if (o.ranks_per_node < 1) {
    throw xg::InputError("--ranks-per-node must be >= 1");
  }
  if (o.metrics_every < 0.0) {
    throw xg::InputError("--metrics-every must be >= 0");
  }
  if (o.events_out.empty() && o.metrics_every > 0.0) {
    throw xg::InputError("--metrics-every requires --events-out");
  }
  if (o.events_out.empty() && !o.slo.empty()) {
    throw xg::InputError("--slo requires --events-out");
  }
  if (!o.slo.empty()) {
    (void)xg::campaign::SloSpec::parse(o.slo);  // fail fast on bad grammar
  }
  if (o.audit_frac_set && !o.fast_path) {
    throw xg::InputError("--audit-frac requires --fast-path");
  }
  if (o.audit_frac < 0.0 || o.audit_frac > 1.0) {
    throw xg::InputError("--audit-frac must be in [0,1]");
  }
  if (o.audit_seed < 0) throw xg::InputError("--audit-seed must be >= 0");
  if (o.window_auto && (!o.batching || o.window_s <= 0.0 ||
                        o.max_batch <= 1)) {
    throw xg::InputError(
        "--window-auto requires windowed batching "
        "(no --no-batching, --window > 0, --max-batch > 1)");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xg;
  // Outlives the try so a structured failure mid-run can still append the
  // service.aborted terminal record — post-mortems always have data.
  std::unique_ptr<telemetry::EventLogWriter> events;
  try {
    const Options opt = parse_args(argc, argv);

    const campaign::StreamSpec spec = campaign::StreamSpec::parse(opt.gen);
    const std::vector<campaign::Request> stream = spec.generate();

    campaign::ServiceConfig cfg;
    cfg.cluster = net::testbox(opt.nodes, opt.ranks_per_node);
    cfg.max_queue_depth = opt.queue_depth;
    cfg.tenant_quota = opt.tenant_quota;
    cfg.batching_window_s = opt.window_s;
    cfg.max_batch = opt.max_batch;
    cfg.batching = opt.batching;
    cfg.nodes_per_job = opt.nodes_per_job;
    cfg.n_report_intervals = opt.intervals;
    cfg.mode = opt.mode == "real" ? gyro::Mode::kReal : gyro::Mode::kModel;
    cfg.checkpoint_root = opt.checkpoint_dir;
    cfg.preempt_quantum = opt.quantum;
    cfg.max_recoveries = opt.max_recoveries;
    cfg.report_dir = opt.report_dir;
    cfg.fast_path = opt.fast_path;
    cfg.audit_frac = opt.audit_frac;
    cfg.audit_seed = static_cast<std::uint64_t>(opt.audit_seed);
    cfg.placement = opt.backfill ? campaign::PlacementPolicy::kBackfill
                                 : campaign::PlacementPolicy::kFirstFit;
    cfg.window_auto = opt.window_auto;
    if (!opt.events_out.empty()) {
      events = std::make_unique<telemetry::EventLogWriter>(opt.events_out);
      cfg.events = events.get();
      cfg.metrics_every_s = opt.metrics_every;
      cfg.slo = opt.slo;
    }

    campaign::CampaignService service(cfg);
    const campaign::ServiceResult res = service.run(stream);

    std::printf("%s", res.describe().c_str());
    if (!opt.report_out.empty()) {
      telemetry::write_json_file(opt.report_out, res.to_json());
      std::printf("service report written to %s\n", opt.report_out.c_str());
    }
    if (!opt.metrics_out.empty()) {
      telemetry::write_json_file(opt.metrics_out, res.metrics);
      std::printf("metrics written to %s\n", opt.metrics_out.c_str());
    }
    if (events != nullptr) {
      std::printf("event log written to %s (%ld records)\n",
                  events->path().c_str(), events->records_written());
    }
    if (res.failed > 0) {
      std::fprintf(stderr, "xgyro_serve: %d admitted request(s) failed\n",
                   res.failed);
      return 2;
    }
    if (res.fast_path.is_object()) {
      const telemetry::Json& audit = res.fast_path.at("audit");
      if (!audit.at("pass").as_bool()) {
        std::fprintf(stderr,
                     "xgyro_serve: fast-path audit gate FAILED "
                     "(worst ratio %.3f > tolerance %.3f over %lld audits)\n",
                     audit.at("worst_ratio").as_double(),
                     audit.at("tolerance").as_double(),
                     static_cast<long long>(audit.at("n").as_int()));
        return 2;
      }
    }
    return 0;
  } catch (const Error& e) {
    if (events != nullptr) events->abort(e.what());
    std::fprintf(stderr, "xgyro_serve: %s\n", e.what());
    return 1;
  }
}

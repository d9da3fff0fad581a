// Host-clock benchmark program.
//
//   hostbench --workload fig2_des|ensemble_real|service_stream --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload from a single main thread for about S seconds, checks
// its outputs, prints every metric with its unit, median, tail and sample
// count, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, records host-time spans around every layer call and
// writes them to DIR. Exit status: 0 when every check passed, 1 when one
// failed, 2 on a usage error.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "common.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json, in its order.
const MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},           {"cpu_s", "s"},
    {"setup_s", "s"},          {"peak_rss_mib", "MiB"},
    {"member_steps_per_s", "steps/s"}, {"requests_per_s", "req/s"},
};

const MetricSpec kPerLayer[] = {
    {"simmpi.runs", "count"},
    {"simmpi.ranks", "count"},
    {"simmpi.msgs", "count"},
    {"simmpi.payload_mib", "MiB"},
    {"simmpi.virtual_mib", "MiB"},
    {"simmpi.collectives", "count"},
    {"simmpi.msgs_per_s", "1/s"},
    {"simmpi.spawn_join_s", "s"},
    {"simmpi.rank_blocked_s", "s"},
    {"simmpi.sys_cpu_s", "s"},
    {"simmpi.ctx_switches", "count"},
    {"simmpi.allreduce_per_s", "1/s"},
    {"simmpi.alltoall_per_s", "1/s"},
    {"tensor.transposes", "count"},
    {"tensor.transpose_gib_per_s", "GiB/s"},
    {"collision.build_cells_per_s", "1/s"},
    {"la.lu_solve_per_s", "1/s"},
    {"collision.apply_cells_per_s", "1/s"},
    {"collision.apply_flops", "flop"},
    {"collision.apply_bytes", "B"},
    {"collision.apply_flop_per_byte", "flop/B"},
    {"fft.transforms_per_s", "1/s"},
    {"gyro.init_s", "s"},
    {"gyro.step_wall_s", "s"},
    {"gyro.step_cpu_s", "s"},
    {"gyro.steps", "count"},
    {"xgyro.cgyro_job_s", "s"},
    {"xgyro.xgyro_job_s", "s"},
    {"perfmodel.estimate_phases_per_s", "1/s"},
    {"campaign.jobs", "count"},
    {"campaign.jobs_modeled", "count"},
    {"campaign.jobs_audited", "count"},
    {"campaign.loop_s", "s"},
    {"campaign.audit_des_s", "s"},
    {"campaign.monitor_s", "s"},
    {"telemetry.records", "count"},
    {"telemetry.validate_s", "s"},
    {"telemetry.records_per_s", "1/s"},
    {"telemetry.emit_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload "
               "fig2_des|ensemble_real|service_stream --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

bool parse_uint(const char* s, unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

void print_metric(const hb::Metric& m) {
  std::printf("  %-34s %14.6g %-8s", m.name.c_str(), m.value, m.unit.c_str());
  if (!m.samples.empty()) {
    const hb::Tail t = hb::tail(m.samples);
    const auto [lo, hi] =
        std::minmax_element(m.samples.begin(), m.samples.end());
    std::printf(" median of n=%zu (min %.6g, max %.6g)", m.samples.size(),
                *lo, *hi);
    if (t.percentile > 0) {
      std::printf(", p%g %.6g", t.percentile, t.value);
    } else {
      std::printf(", no percentile with >=10 samples beyond it");
    }
  }
  if (!m.note.empty()) std::printf("  [%s]", m.note.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  hb::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long v = 0;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_uint(value, &v)) {
      opt.seed = v;
      have_seed = true;
    } else if (flag == "--seconds" && parse_uint(value, &v) && v >= 1 &&
               v <= 3600) {
      opt.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (flag == "--trace" && parse_uint(value, &v) && v <= 1) {
      opt.trace = v == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  void (*run)(const hb::Options&, hb::Checks&, hb::Report&,
              hb::SpanRecorder&) = nullptr;
  if (opt.workload == "fig2_des") run = hb::run_fig2_des;
  if (opt.workload == "ensemble_real") run = hb::run_ensemble_real;
  if (opt.workload == "service_stream") run = hb::run_service_stream;
  if (run == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  std::printf("hostbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  hb::SpanRecorder spans(opt.trace);
  hb::Checks checks;
  hb::Report report;
  try {
    run(opt, checks, report, spans);
  } catch (const std::exception& e) {
    checks.expect(false, std::string("workload threw: ") + e.what());
  }

  // Complete the reported set: a per-layer metric this workload does not
  // exercise reads 0 and says so; a missing end-to-end metric is an error.
  const std::span<const MetricSpec> wanted =
      opt.trace ? std::span<const MetricSpec>(kPerLayer)
                : std::span<const MetricSpec>(kEndToEnd);
  for (const auto& spec : wanted) {
    const hb::Metric* m = report.find(spec.name);
    if (m == nullptr) {
      if (!opt.trace) {
        checks.expect(false, std::string("no value for ") + spec.name);
      }
      report.set(spec.name, spec.unit, 0.0,
                 "absent: layer not run by this workload");
      continue;
    }
    checks.expect(m->unit == spec.unit && std::isfinite(m->value),
                  std::string("metric ") + spec.name + " has unit " +
                      spec.unit + " and a finite value");
  }

  std::printf("\n%s metrics (%s):\n", opt.trace ? "per-layer" : "end-to-end",
              opt.workload.c_str());
  for (const auto& spec : wanted) print_metric(*report.find(spec.name));

  if (opt.trace) {
    std::printf("\nhost-time spans (self = duration minus the union of its "
                "children):\n  %-24s %8s %12s %12s\n", "span", "count",
                "total_s", "self_s");
    for (const auto& [name, t] : spans.totals(-1)) {
      std::printf("  %-24s %8d %12.6f %12.6f\n", name.c_str(), t.count,
                  t.total_s, t.self_s);
    }
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (spans.write_json(path)) {
      std::printf("%zu spans written to %s\n", spans.size(), path.c_str());
    } else {
      std::printf("could not write spans to %s\n", path.c_str());
    }
  }

  const double error_frac =
      checks.attempted() > 0
          ? static_cast<double>(checks.failed()) / checks.attempted()
          : 1.0;
  std::printf("\nchecks: %d attempted, %d failed (error_frac %.6g)\n",
              checks.attempted(), checks.failed(), error_frac);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              std::max(checks.attempted(), 1), checks.failed());
  bool first = true;
  for (const auto& spec : wanted) {
    const hb::Metric* m = report.find(spec.name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", spec.name,
                std::isfinite(m->value) ? m->value : 0.0, spec.unit);
    first = false;
  }
  std::printf("}}\n");
  return checks.failed() == 0 ? 0 : 1;
}

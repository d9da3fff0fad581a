// Perf-model divergence report: perfmodel per-phase predictions replayed
// against measured per-phase DES costs, with a tolerance gate.
//
// The prediction prices every collective exactly as the DES charges it in
// isolation, but it sums phases of one rank's view: arrival skew, overlap
// and kernel-launch charges are left out, so a run tracks it within a
// multiplicative envelope (the Fig. 2 configuration: every gated phase
// within 1.06x) rather than exactly; the default gate tolerance is 3x.
// Phases carrying less than a configurable fraction of total time are
// reported but not gated: a 3x miss on a microsecond phase is noise, not
// divergence.
#pragma once

#include <string>
#include <vector>

#include "gyro/decomposition.hpp"
#include "gyro/input.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simmpi/stats.hpp"
#include "simnet/machine.hpp"
#include "telemetry/json.hpp"

namespace xg::analysis {

struct PhaseDivergence {
  std::string phase;
  double predicted_s = 0.0;  ///< perfmodel, per reporting interval
  double measured_s = 0.0;   ///< DES max-over-ranks, per reporting interval
  double ratio = 1.0;        ///< measured / predicted
  bool significant = false;  ///< carries ≥ significance_frac of either total
  bool within = true;        ///< ratio inside [1/tolerance, tolerance]
};

struct DivergenceReport {
  double tolerance = 0.0;
  double significance_frac = 0.0;
  int n_report_intervals = 1;
  double predicted_total_s = 0.0;
  double measured_total_s = 0.0;
  bool pass = true;  ///< every significant phase within tolerance
  std::vector<PhaseDivergence> phases;  ///< solver presentation order
};

/// Default gate: the envelope perfmodel estimates are held to (see the
/// perfmodel tests, which hold a small operating point to 1.75x).
inline constexpr double kDefaultDivergenceTolerance = 3.0;
/// Phases below this fraction of both totals are not gated.
inline constexpr double kDefaultSignificanceFrac = 0.01;

/// Replay perfmodel::estimate_phases for (input, decomp, k, machine) and
/// compare each predicted phase with result.phase_max_time(phase) divided by
/// `n_report_intervals`. Phases the model does not predict (e.g. "report")
/// are excluded; they are part of neither total. `selector` must be the
/// collective selector the measured run used (nullptr = built-in tuned
/// table) so the prediction prices the schedules that actually ran.
DivergenceReport check_divergence(
    const mpi::RunResult& result, const gyro::Input& input,
    const gyro::Decomposition& decomp, int k, const net::MachineSpec& machine,
    int n_report_intervals, double tolerance = kDefaultDivergenceTolerance,
    double significance_frac = kDefaultSignificanceFrac,
    const mpi::CollSelector* selector = nullptr);

/// { "tolerance", "significance_frac", "n_report_intervals", "pass",
///   "predicted_total_s", "measured_total_s",
///   "phases": [{phase, predicted_s, measured_s, ratio, significant,
///               within}] }
telemetry::Json divergence_json(const DivergenceReport& report);
/// Inverse of divergence_json (used by xgyro_report to re-render embedded
/// analysis sections). Throws xg::InputError on malformed input.
DivergenceReport divergence_from_json(const telemetry::Json& doc);

/// Human-readable predicted-vs-measured table with gate verdict.
std::string format_divergence(const DivergenceReport& report);

}  // namespace xg::analysis

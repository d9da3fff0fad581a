// The benchmark's three workloads. Each runs repetitions until the
// requested seconds have elapsed, checks its outputs into `checks`, and
// fills `report` with its end-to-end metrics (untraced invocation) or its
// per-layer metrics (traced invocation, spans recorded into `spans`).
#pragma once

#include "common.hpp"
#include "gyro/input.hpp"
#include "spans.hpp"

namespace hb {

void run_fig2_des(const Options& opt, Checks& checks, Report& report,
                  SpanRecorder& spans);
void run_ensemble_real(const Options& opt, Checks& checks, Report& report,
                       SpanRecorder& spans);
void run_service_stream(const Options& opt, Checks& checks, Report& report,
                        SpanRecorder& spans);

/// The three request shapes of the service stream (also priced by the
/// perfmodel probe).
struct StreamShapes {
  xg::gyro::Input small;
  xg::gyro::Input medium;
  xg::gyro::Input wide;
};
StreamShapes stream_shapes();

}  // namespace hb

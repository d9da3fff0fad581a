// Accounting structures produced by a simulated run: per-rank virtual-time
// breakdowns by phase, byte counters, and an optional trace of collective
// operations (used to reproduce the paper's Fig. 1 / Fig. 3 communication
// logic diagrams).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "simmpi/fault.hpp"

namespace xg::mpi {

/// Per-destination byte counters (world rank → bytes), a std::map that is
/// allocated on first use. Most runs record no traffic, and every rank keeps
/// one PhaseStats per phase, so the empty case costs one pointer.
class ByteCounters {
 public:
  using Map = std::map<int, std::uint64_t>;

  ByteCounters() = default;
  ByteCounters(const ByteCounters& o)
      : map_(o.map_ ? std::make_unique<Map>(*o.map_) : nullptr) {}
  ByteCounters& operator=(const ByteCounters& o) {
    if (this != &o) map_ = o.map_ ? std::make_unique<Map>(*o.map_) : nullptr;
    return *this;
  }
  ByteCounters(ByteCounters&&) noexcept = default;
  ByteCounters& operator=(ByteCounters&&) noexcept = default;
  ~ByteCounters() = default;

  std::uint64_t& operator[](int dst) {
    if (!map_) map_ = std::make_unique<Map>();
    return (*map_)[dst];
  }
  [[nodiscard]] bool empty() const { return !map_ || map_->empty(); }
  [[nodiscard]] Map::const_iterator begin() const {
    return map_ ? map_->cbegin() : empty_map().cbegin();
  }
  [[nodiscard]] Map::const_iterator end() const {
    return map_ ? map_->cend() : empty_map().cend();
  }

 private:
  static const Map& empty_map() {
    static const Map empty;
    return empty;
  }
  std::unique_ptr<Map> map_;
};

/// Virtual-time and traffic totals for one named phase on one rank.
struct PhaseStats {
  double comm_s = 0.0;     ///< time spent blocked in p2p/collective calls
  double compute_s = 0.0;  ///< time charged via Proc::compute
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_sent = 0;
  /// Only populated when RuntimeOptions::enable_traffic is set; see
  /// simmpi/traffic.hpp.
  ByteCounters bytes_to;

  PhaseStats& operator+=(const PhaseStats& o) {
    comm_s += o.comm_s;
    compute_s += o.compute_s;
    bytes_sent += o.bytes_sent;
    msgs_sent += o.msgs_sent;
    for (const auto& [dst, b] : o.bytes_to) bytes_to[dst] += b;
    return *this;
  }
};

/// Full accounting for one rank.
struct ProcStats {
  int world_rank = -1;
  double final_time_s = 0.0;
  std::map<std::string, PhaseStats> phases;

  [[nodiscard]] PhaseStats total() const {
    PhaseStats t;
    for (const auto& [name, p] : phases) t += p;
    return t;
  }
};

/// Collective algorithm identifiers shared by the runtime (which schedules
/// them), the selector (which picks them), the trace (which records them),
/// and the perf model (which prices them). kAuto is a request, never a
/// recorded value: it means "consult the run's CollSelector".
/// kBrokenForTesting is recursive doubling with the final non-power-of-two
/// fold-back deliberately omitted (a seeded defect the invariant monitor
/// must catch; test-only).
enum class CollAlg {
  kAuto,
  kLinear,
  kRecursiveDoubling,
  kRing,
  kRabenseifner,
  kBruck,
  kPairwise,
  kHierarchical,
  kDissemination,
  kBrokenForTesting,
};

const char* coll_alg_name(CollAlg alg);

/// One member's view of one collective operation. With tracing enabled,
/// EVERY member records its own row — t_start/t_end are that member's entry
/// and exit times, so grouping rows by (comm_context, seq) exposes the
/// per-member skew of a collective (a fault-injected straggler shows up as a
/// late t_start instead of being silently folded into the lowest-rank row).
/// `participants` is the communicator size — the quantity the paper's
/// optimization reduces for the str-phase AllReduce.
struct TraceEvent {
  enum class Kind {
    kBarrier,
    kAllReduce,
    kAllGather,
    kAllToAll,
  };
  Kind kind{};
  CollAlg alg = CollAlg::kAuto;  ///< algorithm that actually ran (never kAuto
                                 ///< on a recorded row; members must agree)
  std::uint64_t comm_context = 0;
  std::uint64_t seq = 0;  ///< collective sequence number on this communicator;
                          ///< (comm_context, seq) identifies one instance
  std::string comm_label;
  int participants = 0;
  std::uint64_t payload_bytes = 0;  ///< per-rank logical payload
  int world_rank = -1;              ///< reporting member's world rank
  int local_rank = -1;   ///< reporting member's rank within the communicator
                         ///< (rows with local_rank == 0 are the canonical
                         ///< one-row-per-collective view)
  int member = -1;       ///< ensemble member of the reporting rank (-1: none)
  double t_start = 0.0;
  double t_end = 0.0;
  std::string phase;

  // --- cross-member arrival attribution, filled by
  // annotate_collective_arrivals() once every member's row is available
  // (rows are recorded independently per rank, so these cannot be known at
  // record time). They expose the DES dependency structure of the
  // collective: no member can leave before the last arriver enters, so
  // `last_arrival_s` is the join point a critical-path walk jumps through.
  double arrival_skew_s = 0.0;  ///< group max t_start - min t_start
  double last_arrival_s = 0.0;  ///< group max t_start (the dependency edge)
  int last_arriver = -1;        ///< world rank of the last-arriving member
};

const char* trace_kind_name(TraceEvent::Kind kind);

/// Group `trace` rows by (comm_context, seq) and fill each row's
/// arrival_skew_s / last_arrival_s / last_arriver from the group's entry
/// times (ties broken toward the lower world rank). Runtime::run applies
/// this to every traced run; exposed for tools that re-annotate merged or
/// synthetic traces.
void annotate_collective_arrivals(std::vector<TraceEvent>& trace);

/// One instrumented scoped region of virtual time on one rank, recorded by
/// mpi::ScopedSpan (collision apply, FFT bracket, transposes, field
/// AllReduce, ...). Feeds the telemetry Chrome-trace exporter: spans nest on
/// a rank's track exactly as the scopes nested in the solver.
struct SpanEvent {
  std::string name;
  std::string phase;   ///< accounting phase at span end
  int world_rank = -1;
  int member = -1;     ///< ensemble member attribution (-1: none)
  double t_start = 0.0;
  double t_end = 0.0;
};

/// Result of Runtime::run.
struct RunResult {
  double makespan_s = 0.0;  ///< max over ranks of final virtual time
  std::vector<ProcStats> ranks;
  std::vector<TraceEvent> trace;  ///< empty unless tracing was enabled
  std::vector<SpanEvent> spans;   ///< empty unless tracing was enabled
  /// Per-rank injected-fault accounting; empty unless a FaultPlan was active.
  std::vector<FaultStats> fault_stats;
  /// Collective instances verified by the invariant monitor (0 if disabled).
  std::uint64_t collectives_checked = 0;

  /// Sum of a phase across ranks (diagnostics).
  [[nodiscard]] PhaseStats phase_total(const std::string& phase) const {
    PhaseStats t;
    for (const auto& r : ranks) {
      if (const auto it = r.phases.find(phase); it != r.phases.end()) t += it->second;
    }
    return t;
  }

  /// Max over ranks of a phase's (comm + compute) time — the usual way a
  /// bulk-synchronous code reports per-phase cost.
  [[nodiscard]] double phase_max_time(const std::string& phase) const {
    double m = 0.0;
    for (const auto& r : ranks) {
      if (const auto it = r.phases.find(phase); it != r.phases.end()) {
        const double t = it->second.comm_s + it->second.compute_s;
        if (t > m) m = t;
      }
    }
    return m;
  }

  [[nodiscard]] double phase_max_comm(const std::string& phase) const {
    double m = 0.0;
    for (const auto& r : ranks) {
      if (const auto it = r.phases.find(phase); it != r.phases.end()) {
        if (it->second.comm_s > m) m = it->second.comm_s;
      }
    }
    return m;
  }
};

}  // namespace xg::mpi

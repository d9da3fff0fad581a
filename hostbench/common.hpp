// Shared plumbing of the host-clock benchmark: clocks, process resource
// usage, order statistics, the correctness-check ledger and the metric
// report every workload fills in.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hb {

/// Host seconds on the monotonic clock.
double wall_now();
/// CPU seconds consumed by the calling thread.
double thread_cpu_now();

/// Process-wide resource usage (all threads, live and joined).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;  ///< voluntary + involuntary
  double maxrss_mib = 0.0;    ///< peak resident set so far
  double steal_s = 0.0;       ///< machine-wide hypervisor steal so far
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
};
Usage usage_now();

/// Share of the machine's CPU time the hypervisor took away (steal) between
/// two readings `wall_s` apart.
double steal_frac(const Usage& before, const Usage& after, double wall_s);

/// Which repetitions enter the medians: the half with the least host steal
/// (at least `min_keep`, at most all). On a shared host the hypervisor's
/// steal lengthens a repetition by far more than run-to-run noise, and it
/// is load from other guests, not cost of the program. Prints the steal
/// the kept and the dropped repetitions saw.
std::vector<bool> low_steal(const std::vector<double>& steal_fracs,
                            int min_keep);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// The highest of the usual percentiles (99.9, 99, 95, 90, 75, 50) that
/// still has at least ten samples beyond it, read by nearest rank.
/// `percentile` stays 0 when there are too few samples for any of them.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};
Tail tail(std::vector<double> v);

/// Ledger of attempted operations: timed runs, submitted requests and
/// correctness checks. A thrown run, an unfinished request and a failed
/// check each count as one failure.
class Checks {
 public:
  /// Record one check; prints FAIL with `what` when `ok` is false.
  bool expect(bool ok, const std::string& what);
  /// Record `n` attempted operations of which `failed` did not succeed.
  void count(int n, int failed, const std::string& what);
  /// Run `fn` as one attempted operation; an exception is its failure.
  bool attempt(const std::string& what, const std::function<void()>& fn);

  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< per-repetition values behind `value`
  std::string note;             ///< provenance, or why the value is absent
};

/// The metrics one invocation reports, in insertion order.
class Report {
 public:
  /// One measured or computed value.
  void set(const std::string& name, const std::string& unit, double value,
           const std::string& note = "");
  /// Per-repetition samples; the reported value is their median.
  void set_samples(const std::string& name, const std::string& unit,
                   std::vector<double> samples, const std::string& note = "");
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  Metric& slot(const std::string& name);
  std::vector<Metric> metrics_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< span files are written here
};

}  // namespace hb

// Host-time span recorder. Spans are opened by the benchmark around its
// calls into each layer (the library itself carries no host timers yet);
// they are kept in memory, written out when the invocation ends, and a
// layer's self time is derived from them: its duration minus the union of
// the intervals its child spans cover. Children may run on other threads
// (simulated-rank bodies under a run_simulation span), which is why the
// covered part is a union and not a sum.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hb {

struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int id = -1;
  int parent = -1;  ///< -1 = root
  int run = -1;     ///< repetition the span belongs to
};

class SpanRecorder {
 public:
  /// A disabled recorder hands out id -1 and records nothing.
  explicit SpanRecorder(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span; thread-safe. Returns its id (-1 when disabled).
  int begin(const std::string& name, int parent, int run);
  /// Close span `id` now; thread-safe, no-op for id -1.
  void end(int id);

  struct Totals {
    int count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per span name: how many, summed duration, summed self time, over the
  /// spans of repetition `run` (all repetitions when `run` < 0).
  [[nodiscard]] std::map<std::string, Totals> totals(int run) const;
  [[nodiscard]] size_t size() const;

  /// Write every span as JSON (times relative to the recorder's creation).
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  double origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< index = id
};

/// RAII span; a disabled recorder makes it free of locks and clocks.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const std::string& name, int parent, int run)
      : rec_(rec), id_(rec.enabled() ? rec.begin(name, parent, run) : -1) {}
  ~SpanScope() { rec_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace hb

#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.hpp"

namespace hb {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(wall_now()) {}

int SpanRecorder::begin(const std::string& name, int parent, int run) {
  if (!enabled_) return -1;
  const double t = wall_now();
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, t, t, id, parent, run});
  return id;
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const double t = wall_now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].t1 = t;
}

size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals(
    int run) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
  }
  std::map<std::string, Totals> out;
  for (const auto& s : spans_) {
    if (run >= 0 && s.run != run) continue;
    auto& kids = children[static_cast<size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = s.t0;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, cursor);
      const double hi = std::min(b, s.t1);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    Totals& t = out[s.name];
    ++t.count;
    t.total_s += s.t1 - s.t0;
    t.self_s += (s.t1 - s.t0) - covered;
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"schema\": \"hostbench.spans\", \"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %d, \"parent\": %d, \"run\": %d, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}",
                 i == 0 ? "" : ",", s.id, s.parent, s.run, s.name.c_str(),
                 s.t0 - origin_, s.t1 - origin_);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hb

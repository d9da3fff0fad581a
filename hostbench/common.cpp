#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>

namespace hb {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  Usage u;
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  // /proc/stat: "cpu user nice system idle iowait irq softirq steal ..." in
  // clock ticks; absent outside Linux guests, where steal reads 0.
  std::ifstream stat("/proc/stat");
  std::string label;
  double field[8] = {};
  if (stat >> label && label == "cpu") {
    for (double& f : field) stat >> f;
    u.steal_s = field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return u;
}

double steal_frac(const Usage& before, const Usage& after, double wall_s) {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  return wall_s > 0.0 ? (after.steal_s - before.steal_s) / (wall_s * cpus)
                      : 0.0;
}

std::vector<bool> low_steal(const std::vector<double>& steal_fracs,
                            int min_keep) {
  const size_t n = steal_fracs.size();
  const size_t kept =
      std::min(n, std::max(static_cast<size_t>(min_keep), (n + 1) / 2));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_fracs[a] < steal_fracs[b];
  });
  std::vector<bool> keep(n, false);
  for (size_t i = 0; i < kept; ++i) keep[order[i]] = true;
  if (kept > 0 && kept < n) {
    std::printf("host steal: kept the %zu of %zu repetitions with the least "
                "(up to %.2f%% of CPU time; worst dropped %.2f%%)\n",
                kept, n, 100.0 * steal_fracs[order[kept - 1]],
                100.0 * steal_fracs[order[n - 1]]);
  } else if (kept > 0) {
    std::printf("host steal: all %zu repetitions kept (up to %.2f%% of CPU "
                "time)\n", n, 100.0 * steal_fracs[order[n - 1]]);
  }
  return keep;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) < 10.0) continue;
    const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    t.percentile = p;
    t.value = v[rank == 0 ? 0 : rank - 1];
    break;
  }
  return t;
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("FAIL: %s\n", what.c_str());
  }
  return ok;
}

void Checks::count(int n, int failed, const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) std::printf("FAIL: %d of %d %s\n", failed, n, what.c_str());
}

bool Checks::attempt(const std::string& what, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return expect(false, what + " threw: " + e.what());
  }
  ++attempted_;
  return true;
}

Metric& Report::slot(const std::string& name) {
  for (auto& m : metrics_) {
    if (m.name == name) return m;
  }
  metrics_.push_back(Metric{name, "", 0.0, {}, ""});
  return metrics_.back();
}

void Report::set(const std::string& name, const std::string& unit,
                 double value, const std::string& note) {
  Metric& m = slot(name);
  m.unit = unit;
  m.value = value;
  m.samples.clear();
  m.note = note;
}

void Report::set_samples(const std::string& name, const std::string& unit,
                         std::vector<double> samples, const std::string& note) {
  Metric& m = slot(name);
  m.unit = unit;
  m.value = median(samples);
  m.samples = std::move(samples);
  m.note = note;
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace hb

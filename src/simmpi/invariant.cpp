#include "simmpi/invariant.hpp"

#include "util/format.hpp"

namespace xg::mpi {

namespace {

std::string describe(std::uint64_t context, std::uint64_t seq,
                     const std::string& label) {
  return strprintf("collective (comm '%s' ctx=%016llx seq=%llu)",
                   label.c_str(), static_cast<unsigned long long>(context),
                   static_cast<unsigned long long>(seq));
}

}  // namespace

void InvariantMonitor::observe(const Report& r) {
  const std::scoped_lock lock(mu_);
  const std::pair<std::uint64_t, std::uint64_t> key{r.context, r.seq};
  auto it = inflight_.find(key);
  if (it == inflight_.end()) {
    Inflight rec;
    rec.kind = r.kind;
    rec.alg = r.alg;
    rec.participants = r.participants;
    rec.payload_bytes = r.payload_bytes;
    rec.has_hash = r.has_hash;
    rec.result_hash = r.result_hash;
    rec.first_rank = r.world_rank;
    rec.count = 1;
    rec.comm_label = r.comm_label;
    if (rec.count == rec.participants) {
      ++completed_;
    } else {
      inflight_.emplace(key, std::move(rec));
    }
    return;
  }
  Inflight& rec = it->second;
  // Formatted only when a check fails: this runs for every member of every
  // collective, under the run-wide lock.
  const auto where = [&r] { return describe(r.context, r.seq, r.comm_label); };
  if (rec.kind != r.kind) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s: rank %d entered %s but rank %d entered %s "
        "at the same sequence number — members disagree on the collective "
        "schedule",
        where().c_str(), rec.first_rank, trace_kind_name(rec.kind),
        r.world_rank, trace_kind_name(r.kind)));
  }
  if (rec.alg != r.alg) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s (%s): rank %d ran algorithm '%s' but rank %d "
        "ran '%s' — members resolved the selector differently",
        where().c_str(), trace_kind_name(rec.kind), rec.first_rank,
        coll_alg_name(rec.alg), r.world_rank, coll_alg_name(r.alg)));
  }
  if (rec.participants != r.participants) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s (%s): rank %d sees %d participants but rank "
        "%d sees %d",
        where().c_str(), trace_kind_name(rec.kind), rec.first_rank,
        rec.participants, r.world_rank, r.participants));
  }
  if (rec.payload_bytes != r.payload_bytes) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s (%s): rank %d passed %llu payload bytes but "
        "rank %d passed %llu",
        where().c_str(), trace_kind_name(rec.kind), rec.first_rank,
        static_cast<unsigned long long>(rec.payload_bytes), r.world_rank,
        static_cast<unsigned long long>(r.payload_bytes)));
  }
  if (rec.has_hash && r.has_hash && rec.result_hash != r.result_hash) {
    throw InvariantViolation(strprintf(
        "invariant violation: %s (%s): result buffers are not bitwise "
        "identical across members — rank %d has hash %016llx, rank %d has "
        "%016llx",
        where().c_str(), trace_kind_name(rec.kind), rec.first_rank,
        static_cast<unsigned long long>(rec.result_hash), r.world_rank,
        static_cast<unsigned long long>(r.result_hash)));
  }
  rec.has_hash = rec.has_hash && r.has_hash;
  rec.count += 1;
  if (rec.count == rec.participants) {
    inflight_.erase(it);
    ++completed_;
  }
}

void InvariantMonitor::final_check() const {
  const std::scoped_lock lock(mu_);
  if (inflight_.empty()) return;
  const auto& [key, rec] = *inflight_.begin();
  throw InvariantViolation(strprintf(
      "invariant violation: run finished with %zu incomplete collective(s); "
      "first: %s (%s) observed by %d of %d members — some members skipped it",
      inflight_.size(), describe(key.first, key.second, rec.comm_label).c_str(),
      trace_kind_name(rec.kind), rec.count, rec.participants));
}

std::uint64_t InvariantMonitor::completed() const {
  const std::scoped_lock lock(mu_);
  return completed_;
}

}  // namespace xg::mpi

// Collective algorithm library, decision logic and pricer.
//
// Every algorithm here is written once, as a schedule of CollBuf/BlockBuf
// transfers over a CollTopo. The DES runs it through comm.hpp's backings
// (typed, virtual and fault-injected paths alike); price_collective runs
// it through a recorder and replays the recorded transfers on the DES's
// LogGP step. The *_subset variants run a schedule over an ordered subset
// of a communicator's local ranks — the building block of the hierarchical
// (leader-based) AllReduce, which reduces within each node first so only
// one rank per node injects into the fabric.
#include "simmpi/coll.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <vector>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::mpi {

namespace {

/// MPICH-style latency/bandwidth crossover: the legacy selector's AllReduce
/// cutoff, and the hierarchical AllReduce's choice between recursive
/// doubling and the ring for its inter-node stage.
constexpr std::uint64_t kRingThresholdBytes = 64 * 1024;

}  // namespace

namespace detail {

namespace {

/// Largest power of two <= n (n >= 1).
int pow2_floor(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

/// Balanced range partition: chunk c of n elements over P chunks.
size_t chunk_lo(size_t n, int nchunks, int c) {
  return n * static_cast<size_t>(c) / static_cast<size_t>(nchunks);
}

int index_of(std::span<const int> ranks, int r) {
  const auto it = std::find(ranks.begin(), ranks.end(), r);
  XG_ASSERT(it != ranks.end());
  return static_cast<int>(it - ranks.begin());
}

std::vector<int> identity_ranks(int p) {
  std::vector<int> ranks(static_cast<size_t>(p));
  std::iota(ranks.begin(), ranks.end(), 0);
  return ranks;
}

// --- AllReduce schedules over an ordered rank subset ------------------------
// `ranks` lists the participating local ranks; `my_idx` is the caller's
// position in it. Partner-order decisions use subset indices, so results are
// identical whichever physical ranks participate.

/// Recursive-doubling allreduce with the standard non-power-of-two fold.
/// `skip_final_fold` (kBrokenForTesting) omits handing the result back to
/// the folded odd ranks, leaving them with stale partial sums — a seeded
/// defect the invariant monitor must detect via the result-hash check.
void allreduce_rdb_subset(CollBuf& buf, std::span<const int> ranks, int my_idx,
                          bool skip_final_fold = false) {
  const int p = static_cast<int>(ranks.size());
  const size_t n = buf.count();
  const int p2 = pow2_floor(p);
  const int rem = p - p2;

  // Fold the ranks beyond the largest power of two into their even partner.
  if (my_idx < 2 * rem) {
    if (my_idx % 2 == 1) {
      buf.send_range(ranks[my_idx - 1], 0, n);
    } else {
      buf.recv_reduce(ranks[my_idx + 1], 0, n, /*partner_lower=*/false);
    }
  }
  const int newrank =
      (my_idx < 2 * rem) ? ((my_idx % 2 == 0) ? my_idx / 2 : -1) : my_idx - rem;
  if (newrank >= 0) {
    for (int mask = 1; mask < p2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner_idx =
          (partner_new < rem) ? partner_new * 2 : partner_new + rem;
      buf.send_range(ranks[partner_idx], 0, n);
      buf.recv_reduce(ranks[partner_idx], 0, n,
                      /*partner_lower=*/partner_idx < my_idx);
    }
  }
  // Hand the result back to the folded odd ranks.
  if (skip_final_fold) return;
  if (my_idx < 2 * rem) {
    if (my_idx % 2 == 0) {
      buf.send_range(ranks[my_idx + 1], 0, n);
    } else {
      buf.recv_replace(ranks[my_idx - 1], 0, n);
    }
  }
}

/// Ring allreduce: a ring reduce-scatter (after which subset member i holds
/// chunk (i+1) mod P fully reduced) followed by a ring allgather. Optimal
/// bandwidth (2·(P−1)/P · bytes per rank) for large payloads.
void allreduce_ring_subset(CollBuf& buf, std::span<const int> ranks,
                           int my_idx) {
  const int p = static_cast<int>(ranks.size());
  const size_t n = buf.count();
  const int right = ranks[(my_idx + 1) % p];
  const int left = ranks[(my_idx - 1 + p) % p];
  for (int step = 0; step < p - 1; ++step) {
    const int send_chunk = (my_idx - step + 2 * p) % p;
    const int recv_chunk = (my_idx - step - 1 + 2 * p) % p;
    buf.send_range(right, chunk_lo(n, p, send_chunk),
                   chunk_lo(n, p, send_chunk + 1));
    buf.recv_reduce(left, chunk_lo(n, p, recv_chunk),
                    chunk_lo(n, p, recv_chunk + 1), /*partner_lower=*/true);
  }
  for (int step = 0; step < p - 1; ++step) {
    const int send_chunk = (my_idx + 1 - step + 2 * p) % p;
    const int recv_chunk = (my_idx - step + 2 * p) % p;
    buf.send_range(right, chunk_lo(n, p, send_chunk),
                   chunk_lo(n, p, send_chunk + 1));
    buf.recv_replace(left, chunk_lo(n, p, recv_chunk),
                     chunk_lo(n, p, recv_chunk + 1));
  }
}

/// Rabenseifner allreduce: recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather. Asymptotically halves the large-message
/// byte volume of plain recursive doubling while keeping log(P) steps.
void allreduce_rabenseifner(CollBuf& buf, int p, int r) {
  const size_t n = buf.count();
  const int p2 = pow2_floor(p);
  const int rem = p - p2;

  // Fold the ranks beyond the largest power of two into their even partner.
  if (r < 2 * rem) {
    if (r % 2 == 1) {
      buf.send_range(r - 1, 0, n);
    } else {
      buf.recv_reduce(r + 1, 0, n, /*partner_lower=*/false);
    }
  }
  const int newrank = (r < 2 * rem) ? ((r % 2 == 0) ? r / 2 : -1) : r - rem;
  const auto old_of = [&](int nr) { return nr < rem ? nr * 2 : nr + rem; };
  if (newrank >= 0 && p2 > 1) {
    // Recursive halving: each step trades away half of the owned range.
    size_t lo = 0;
    size_t hi = n;
    std::vector<std::pair<size_t, size_t>> enclosing;  // range before split
    for (int mask = p2 >> 1; mask > 0; mask >>= 1) {
      const int partner_new = newrank ^ mask;
      const int partner = old_of(partner_new);
      enclosing.emplace_back(lo, hi);
      const size_t mid = lo + (hi - lo) / 2;
      if (newrank & mask) {
        buf.send_range(partner, lo, mid);
        buf.recv_reduce(partner, mid, hi, /*partner_lower=*/partner < r);
        lo = mid;
      } else {
        buf.send_range(partner, mid, hi);
        buf.recv_reduce(partner, lo, mid, /*partner_lower=*/partner < r);
        hi = mid;
      }
    }
    // Recursive doubling allgather, unwinding the splits in reverse.
    for (int mask = 1; mask < p2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner = old_of(partner_new);
      const auto [elo, ehi] = enclosing.back();
      enclosing.pop_back();
      buf.send_range(partner, lo, hi);
      if (newrank & mask) {
        buf.recv_replace(partner, elo, lo);
        lo = elo;
      } else {
        buf.recv_replace(partner, hi, ehi);
        hi = ehi;
      }
    }
  }
  // Hand the full result back to the folded odd ranks.
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      buf.send_range(r + 1, 0, n);
    } else {
      buf.recv_replace(r - 1, 0, n);
    }
  }
}

// --- rooted stages of the linear and hierarchical AllReduce -----------------
// Both run over an ordered rank subset rooted at its first member.

/// Linear reduce: every other member sends its full vector to ranks[0],
/// which folds them in ascending subset order.
void reduce_linear(CollBuf& buf, std::span<const int> ranks, int my_idx) {
  const size_t n = buf.count();
  if (my_idx == 0) {
    for (size_t i = 1; i < ranks.size(); ++i) {
      buf.recv_reduce(ranks[i], 0, n, /*partner_lower=*/false);
    }
  } else {
    buf.send_range(ranks[0], 0, n);
  }
}

/// Binomial-tree bcast from ranks[0].
void bcast_binomial_subset(CollBuf& buf, std::span<const int> ranks,
                           int my_idx) {
  const int p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  const size_t n = buf.count();
  int mask = 1;
  while (mask < p) {
    if (my_idx & mask) {
      buf.recv_replace(ranks[my_idx - mask], 0, n);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (my_idx + mask < p) buf.send_range(ranks[my_idx + mask], 0, n);
    mask >>= 1;
  }
}

// --- hierarchical (leader-based) schedules ----------------------------------
// The machine model charges each node's NIC as a fair share across all
// concurrently injecting co-located ranks (Placement::inter_bw_effective).
// Reducing within the node first means only one rank per node — the leader —
// touches the fabric, so the inter-node stage runs with nic_sharers == 1 and
// gets the full per-rank attach bandwidth: ranks_per_node·n_nodes injectors
// become n_nodes.

/// Holds the NIC-exclusive window open for its scope.
class NicExclusive {
 public:
  explicit NicExclusive(CollBuf& buf) : buf_(buf) { buf_.nic_exclusive(true); }
  ~NicExclusive() { buf_.nic_exclusive(false); }
  NicExclusive(const NicExclusive&) = delete;
  NicExclusive& operator=(const NicExclusive&) = delete;

 private:
  CollBuf& buf_;
};

void allreduce_hierarchical(const CollTopo& topo, CollBuf& buf) {
  const auto& groups = *topo.node_groups;
  const auto holds_me = [&](const std::vector<int>& grp) {
    return std::find(grp.begin(), grp.end(), topo.rank) != grp.end();
  };
  const int g = static_cast<int>(
      std::find_if(groups.begin(), groups.end(), holds_me) - groups.begin());
  const auto& mine = groups[static_cast<size_t>(g)];
  const int my_idx = index_of(mine, topo.rank);  // 0: the node leader

  // 1) intra-node linear reduce onto the node leader (lowest local rank).
  reduce_linear(buf, mine, my_idx);

  // 2) inter-node allreduce among the leaders only, one NIC injector per
  //    node. Same size crossover as the legacy flat selector: recursive
  //    doubling when latency-bound, ring when bandwidth-bound.
  if (groups.size() > 1 && my_idx == 0) {
    std::vector<int> leaders;
    leaders.reserve(groups.size());
    for (const auto& grp : groups) leaders.push_back(grp.front());
    const NicExclusive exclusive(buf);
    if (buf.total_bytes() >= kRingThresholdBytes && leaders.size() > 2) {
      allreduce_ring_subset(buf, leaders, g);
    } else {
      allreduce_rdb_subset(buf, leaders, g);
    }
  }

  // 3) intra-node bcast of the reduced vector from the leader.
  bcast_binomial_subset(buf, mine, my_idx);
}

// --- block collectives ------------------------------------------------------

void allgather_linear(BlockBuf& buf, int p, int r) {
  buf.copy_in_to_out(0, r);
  // Spread schedule: at step s send to r+s, receive from r-s, so no single
  // rank is a hotspot.
  for (int step = 1; step < p; ++step) {
    const int dst = (r + step) % p;
    const int src = (r - step + p) % p;
    buf.send_in(0, dst);
    buf.recv_out(src, src);
  }
}

void allgather_ring(BlockBuf& buf, int p, int r) {
  buf.copy_in_to_out(0, r);
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  // Ring: forward the newest block each step.
  for (int step = 0; step < p - 1; ++step) {
    const int send_block = (r - step + 2 * p) % p;
    const int recv_block = (r - step - 1 + 2 * p) % p;
    buf.send_out(send_block, right);
    buf.recv_out(recv_block, left);
  }
}

/// Bruck allgather: ceil(log2 P) rounds of doubling aggregated messages —
/// latency-optimal for small blocks where the ring's P−1 rounds dominate.
/// Invariant after the round with offset k: out[i] holds rank (r+i)%p's
/// block for i in [0, min(2k, p)).
void allgather_bruck(BlockBuf& buf, int p, int r) {
  buf.copy_in_to_out(0, 0);
  std::vector<int> send_blocks;
  std::vector<int> recv_blocks;
  for (int k = 1; k < p; k <<= 1) {
    const int m = std::min(k, p - k);
    send_blocks.resize(static_cast<size_t>(m));
    std::iota(send_blocks.begin(), send_blocks.end(), 0);
    recv_blocks.resize(static_cast<size_t>(m));
    std::iota(recv_blocks.begin(), recv_blocks.end(), k);
    buf.send_out_blocks(send_blocks, (r - k + p) % p);
    buf.recv_out_blocks(recv_blocks, (r + k) % p);
  }
  // Final rotation: out[j] must hold rank j's block, currently at slot
  // (j - r) mod p.
  std::vector<int> perm(static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) perm[static_cast<size_t>(j)] = (j - r + p) % p;
  buf.permute_out(perm);
}

void alltoall_pairwise(BlockBuf& buf, int p, int r) {
  buf.copy_in_to_out(r, r);
  // Pairwise exchange ("spread" schedule): at step s, send to r+s, receive
  // from r-s. Eager sends make the simultaneous exchange deadlock-free.
  for (int step = 1; step < p; ++step) {
    const int dst = (r + step) % p;
    const int src = (r - step + p) % p;
    buf.send_in(dst, dst);
    buf.recv_out(src, src);
  }
}

void alltoall_linear(BlockBuf& buf, int p, int r) {
  buf.copy_in_to_out(r, r);
  // All sends posted eagerly, then all receives — the naive schedule.
  for (int dst = 0; dst < p; ++dst) {
    if (dst != r) buf.send_in(dst, dst);
  }
  for (int src = 0; src < p; ++src) {
    if (src != r) buf.recv_out(src, src);
  }
}

/// Bruck alltoall: ceil(log2 P) rounds of aggregated half-buffer exchanges —
/// latency-optimal for small blocks where pairwise's P−1 rounds dominate.
void alltoall_bruck(BlockBuf& buf, int p, int r) {
  // Phase 1: local rotation out[i] = in[(r+i) mod p], so the block destined
  // for rank d sits at slot (d - r) mod p on every rank.
  for (int i = 0; i < p; ++i) buf.copy_in_to_out((r + i) % p, i);
  // Phase 2: for each bit k, the blocks whose slot has bit k set move k
  // ranks forward — each block travels exactly the bits of its distance.
  std::vector<int> blocks;
  for (int k = 1; k < p; k <<= 1) {
    blocks.clear();
    for (int i = 0; i < p; ++i) {
      if ((i & k) != 0) blocks.push_back(i);
    }
    buf.send_out_blocks(blocks, (r + k) % p);
    buf.recv_out_blocks(blocks, (r - k + p) % p);
  }
  // Phase 3: inverse rotation; slot j's final content is currently at slot
  // (r - j) mod p.
  std::vector<int> perm(static_cast<size_t>(p));
  for (int j = 0; j < p; ++j) perm[static_cast<size_t>(j)] = (r - j + p) % p;
  buf.permute_out(perm);
}

[[noreturn]] void throw_bad_alg(const char* which, CollAlg alg) {
  throw MpiUsageError(strprintf("%s: algorithm '%s' is not valid for this "
                                "collective",
                                which, coll_alg_name(alg)));
}

}  // namespace

std::vector<std::vector<int>> group_by_node(const net::Placement& place,
                                            std::span<const int> members) {
  // Node ids in ascending order → deterministic group order on every member.
  std::map<int, std::vector<int>> by_node;
  for (size_t local = 0; local < members.size(); ++local) {
    by_node[place.node_of(members[local])].push_back(static_cast<int>(local));
  }
  std::vector<std::vector<int>> groups;
  groups.reserve(by_node.size());
  for (auto& [node, locals] : by_node) groups.push_back(std::move(locals));
  return groups;
}

void run_allreduce(const CollTopo& topo, CollBuf& buf, CollAlg alg) {
  buf.next_stage();
  if (topo.size == 1) return;
  const auto ranks = identity_ranks(topo.size);
  const int r = topo.rank;
  switch (alg) {
    case CollAlg::kLinear:
      reduce_linear(buf, ranks, r);
      buf.next_stage();
      bcast_binomial_subset(buf, ranks, r);
      break;
    case CollAlg::kRecursiveDoubling:
      allreduce_rdb_subset(buf, ranks, r);
      break;
    case CollAlg::kRing:
      allreduce_ring_subset(buf, ranks, r);
      break;
    case CollAlg::kRabenseifner:
      allreduce_rabenseifner(buf, topo.size, r);
      break;
    case CollAlg::kHierarchical:
      allreduce_hierarchical(topo, buf);
      break;
    case CollAlg::kBrokenForTesting:
      allreduce_rdb_subset(buf, ranks, r, /*skip_final_fold=*/true);
      break;
    default:
      throw_bad_alg("allreduce", alg);
  }
}

void run_alltoall(const CollTopo& topo, BlockBuf& buf, CollAlg alg) {
  buf.next_stage();
  switch (alg) {
    case CollAlg::kLinear:
      alltoall_linear(buf, topo.size, topo.rank);
      break;
    case CollAlg::kPairwise:
      alltoall_pairwise(buf, topo.size, topo.rank);
      break;
    case CollAlg::kBruck:
      alltoall_bruck(buf, topo.size, topo.rank);
      break;
    default:
      throw_bad_alg("alltoall", alg);
  }
}

void run_allgather(const CollTopo& topo, BlockBuf& buf, CollAlg alg) {
  buf.next_stage();
  switch (alg) {
    case CollAlg::kLinear:
      allgather_linear(buf, topo.size, topo.rank);
      break;
    case CollAlg::kRing:
      allgather_ring(buf, topo.size, topo.rank);
      break;
    case CollAlg::kBruck:
      allgather_bruck(buf, topo.size, topo.rank);
      break;
    default:
      throw_bad_alg("allgather", alg);
  }
}

// --- the pricer ------------------------------------------------------------
// A schedule's control flow depends only on (topology, rank, sizes), never
// on received data, so each member's transfers can be recorded on their
// own and replayed afterwards.

namespace {

/// One recorded transfer of one member's schedule.
struct Transfer {
  bool send = false;
  bool nic_exclusive = false;  ///< sent inside the NIC-exclusive window
  int peer = 0;                ///< local rank
  int stage = 0;               ///< stands in for the DES message tag
  std::uint64_t bytes = 0;
};

/// The pricer's backing of both transfer interfaces: payload sizes only,
/// appended to one member's transfer list.
class Recorder final : public CollBuf, public BlockBuf {
 public:
  Recorder(std::vector<Transfer>& out, std::uint64_t bytes)
      : out_(out), bytes_(bytes) {}

  // CollBuf: a byte-granular buffer of `bytes` elements.
  [[nodiscard]] size_t count() const override { return bytes_; }
  [[nodiscard]] std::uint64_t elem_bytes() const override { return 1; }
  void send_range(int dst, size_t lo, size_t hi) override {
    add(true, dst, hi - lo);
  }
  void recv_replace(int src, size_t lo, size_t hi) override {
    add(false, src, hi - lo);
  }
  void recv_reduce(int src, size_t lo, size_t hi, bool) override {
    add(false, src, hi - lo);
  }
  void nic_exclusive(bool on) override { exclusive_ = on; }

  // BlockBuf: blocks of `bytes` each.
  void send_in(int, int dst) override { add(true, dst, bytes_); }
  void send_out(int, int dst) override { add(true, dst, bytes_); }
  void recv_out(int, int src) override { add(false, src, bytes_); }
  void copy_in_to_out(int, int) override {}
  void send_out_blocks(std::span<const int> blocks, int dst) override {
    add(true, dst, bytes_ * blocks.size());
  }
  void recv_out_blocks(std::span<const int> blocks, int src) override {
    add(false, src, bytes_ * blocks.size());
  }
  void permute_out(std::span<const int>) override {}

  void next_stage() override { ++stage_; }

 private:
  void add(bool send, int peer, std::uint64_t bytes) {
    out_.push_back({send, exclusive_, peer, stage_, bytes});
  }

  std::vector<Transfer>& out_;
  std::uint64_t bytes_;
  int stage_ = 0;
  bool exclusive_ = false;
};

/// Replay every member's transfers from t = 0 and return the makespan. A
/// member runs until it needs a message no one has sent yet; sweeps repeat
/// until every list is drained. Matching is FIFO per (source, stage), as
/// the DES mailbox matches per (source, tag), and each step is the DES's
/// own arithmetic (net::Placement::send/receive, blocking-send
/// completion), so the clocks come out bit-identical to a DES run.
double replay(const net::Placement& place, std::span<const int> members,
              const std::vector<std::vector<Transfer>>& lists) {
  struct Member {
    size_t next = 0;
    double clock = 0.0;
    double nic_free = 0.0;
  };
  struct InFlight {
    int src = 0;
    int stage = 0;
    double arrival = 0.0;
  };
  const size_t p = members.size();
  std::vector<Member> st(p);
  std::vector<std::vector<InFlight>> inbox(p);
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t r = 0; r < p; ++r) {
      Member& m = st[r];
      const auto& list = lists[r];
      for (; m.next < list.size(); ++m.next) {
        const Transfer& t = list[m.next];
        if (t.send) {
          const auto sent = place.send(
              m.clock, m.nic_free, members[r], members[t.peer], t.bytes,
              t.nic_exclusive ? 1 : -1);
          m.clock = std::max(m.clock, sent.complete_at);
          inbox[t.peer].push_back({static_cast<int>(r), t.stage, sent.arrival});
        } else {
          auto& box = inbox[r];
          const auto it =
              std::find_if(box.begin(), box.end(), [&](const InFlight& f) {
                return f.src == t.peer && f.stage == t.stage;
              });
          if (it == box.end()) break;
          m.clock = place.receive(m.clock, it->arrival);
          box.erase(it);
        }
        progress = true;
      }
    }
  }
  double makespan = 0.0;
  for (size_t r = 0; r < p; ++r) {
    XG_ASSERT_MSG(st[r].next == lists[r].size(),
                  "price_collective: schedule cannot complete");
    makespan = std::max(makespan, st[r].clock);
  }
  return makespan;
}

}  // namespace

}  // namespace detail

// --- names and validity -----------------------------------------------------

const char* coll_alg_name(CollAlg alg) {
  switch (alg) {
    case CollAlg::kAuto: return "auto";
    case CollAlg::kLinear: return "linear";
    case CollAlg::kRecursiveDoubling: return "recursive_doubling";
    case CollAlg::kRing: return "ring";
    case CollAlg::kRabenseifner: return "rabenseifner";
    case CollAlg::kBruck: return "bruck";
    case CollAlg::kPairwise: return "pairwise";
    case CollAlg::kHierarchical: return "hierarchical";
    case CollAlg::kDissemination: return "dissemination";
    case CollAlg::kBrokenForTesting: return "broken_for_testing";
  }
  return "unknown";
}

CollAlg coll_alg_from_name(std::string_view name) {
  static constexpr std::array<CollAlg, 10> kAll = {
      CollAlg::kAuto,         CollAlg::kLinear,
      CollAlg::kRecursiveDoubling, CollAlg::kRing,
      CollAlg::kRabenseifner, CollAlg::kBruck,
      CollAlg::kPairwise,     CollAlg::kHierarchical,
      CollAlg::kDissemination, CollAlg::kBrokenForTesting,
  };
  for (const CollAlg a : kAll) {
    if (name == coll_alg_name(a)) return a;
  }
  throw InputError(strprintf("unknown collective algorithm '%.*s'",
                             static_cast<int>(name.size()), name.data()));
}

const char* coll_kind_key(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kAllReduce: return "allreduce";
    case TraceEvent::Kind::kAllGather: return "allgather";
    case TraceEvent::Kind::kAllToAll: return "alltoall";
    default: return nullptr;
  }
}

TraceEvent::Kind coll_kind_from_key(std::string_view key) {
  static constexpr std::array<TraceEvent::Kind, 3> kGoverned = {
      TraceEvent::Kind::kAllReduce, TraceEvent::Kind::kAllGather,
      TraceEvent::Kind::kAllToAll,
  };
  for (const auto k : kGoverned) {
    if (key == coll_kind_key(k)) return k;
  }
  throw InputError(strprintf("unknown collective kind '%.*s'",
                             static_cast<int>(key.size()), key.data()));
}

namespace {

constexpr std::array<CollAlg, 5> kAllReduceAlgs = {
    CollAlg::kLinear, CollAlg::kRecursiveDoubling, CollAlg::kRing,
    CollAlg::kRabenseifner, CollAlg::kHierarchical,
};
constexpr std::array<CollAlg, 3> kAllGatherAlgs = {
    CollAlg::kLinear, CollAlg::kRing, CollAlg::kBruck};
constexpr std::array<CollAlg, 3> kAllToAllAlgs = {
    CollAlg::kLinear, CollAlg::kPairwise, CollAlg::kBruck};

/// The pre-selector fixed behavior and the tuned fallbacks share this shape;
/// `legacy` disables every topology-aware or small-message refinement.
CollAlg builtin_choose(TraceEvent::Kind kind, std::uint64_t bytes, int p,
                       bool legacy) {
  // The tuned cutoffs below are the xgyro_colltune sweep's argmins on the
  // frontier_like machine, at the sweep's grid points (256 B .. 1 MiB x
  // 2 .. 256 ranks); rerun the tool after a network-model change to
  // re-derive them.
  switch (kind) {
    case TraceEvent::Kind::kAllReduce:
      if (legacy) {
        // Pre-selector behavior: MPICH-style crossover, latency-bound small
        // payloads on recursive doubling, large ones on the ring.
        return (bytes >= kRingThresholdBytes && p > 2)
                   ? CollAlg::kRing
                   : CollAlg::kRecursiveDoubling;
      }
      // Rabenseifner's halving/doubling sends half the ring's volume in
      // log(P) rounds instead of 2(P-1): past ~256 KiB it beats recursive
      // doubling, and it beats the ring everywhere the sweep looked.
      return (bytes >= 256 * 1024 && p > 2) ? CollAlg::kRabenseifner
                                            : CollAlg::kRecursiveDoubling;
    case TraceEvent::Kind::kAllGather:
      // Bruck's log(P) doubling rounds move the same total volume as the
      // ring's P-1 rounds but pay (P-1-log P) fewer latencies.
      if (!legacy && p > 2) return CollAlg::kBruck;
      return CollAlg::kRing;
    case TraceEvent::Kind::kAllToAll:
      // Bruck aggregates while blocks are small; past ~4 KiB per pair the
      // ceil(P/2)x volume blowup loses to eager linear exchange.
      if (!legacy && bytes <= 4096 && p > 4) return CollAlg::kBruck;
      if (!legacy && bytes > 4096) return CollAlg::kLinear;
      return CollAlg::kPairwise;
    default:
      return CollAlg::kAuto;
  }
}

}  // namespace

std::span<const CollAlg> selectable_algs(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kAllReduce: return kAllReduceAlgs;
    case TraceEvent::Kind::kAllGather: return kAllGatherAlgs;
    case TraceEvent::Kind::kAllToAll: return kAllToAllAlgs;
    default: return {};
  }
}

bool alg_valid_for(TraceEvent::Kind kind, CollAlg alg) {
  const auto algs = selectable_algs(kind);
  return std::find(algs.begin(), algs.end(), alg) != algs.end();
}

CollSelector::CollSelector(std::vector<CollRule> rules, std::string origin)
    : rules_(std::move(rules)), origin_(std::move(origin)) {
  for (const auto& rule : rules_) {
    if (coll_kind_key(rule.kind) == nullptr) {
      throw InputError(strprintf(
          "collective decision table: kind '%s' is not selector-governed",
          trace_kind_name(rule.kind)));
    }
    if (!alg_valid_for(rule.kind, rule.alg)) {
      throw InputError(strprintf(
          "collective decision table: algorithm '%s' is not valid for %s",
          coll_alg_name(rule.alg), coll_kind_key(rule.kind)));
    }
    if (rule.spans_nodes < -1 || rule.spans_nodes > 1) {
      throw InputError("collective decision table: spans_nodes must be "
                       "-1 (any), 0, or 1");
    }
    if (rule.max_participants < 1) {
      throw InputError(
          "collective decision table: max_participants must be >= 1");
    }
  }
}

const CollSelector& CollSelector::tuned() {
  static const CollSelector s;
  return s;
}

const CollSelector& CollSelector::legacy() {
  static const CollSelector s = [] {
    CollSelector x;
    x.legacy_ = true;
    x.origin_ = "legacy";
    return x;
  }();
  return s;
}

const CollSelector* CollSelector::named(std::string_view name) {
  if (name == "tuned") return &tuned();
  if (name == "legacy") return &legacy();
  return nullptr;
}

CollAlg CollSelector::choose(TraceEvent::Kind kind, std::uint64_t bytes,
                             int participants, bool spans_nodes) const {
  if (coll_kind_key(kind) == nullptr) return CollAlg::kAuto;
  if (!legacy_) {
    for (const auto& rule : rules_) {
      if (rule.kind != kind) continue;
      if (bytes > rule.max_bytes) continue;
      if (participants > rule.max_participants) continue;
      if (rule.spans_nodes >= 0 && rule.spans_nodes != (spans_nodes ? 1 : 0)) {
        continue;
      }
      return rule.alg;
    }
  }
  return builtin_choose(kind, bytes, participants, legacy_);
}

double price_collective(const net::Placement& place,
                        std::span<const int> members, TraceEvent::Kind kind,
                        std::uint64_t bytes, CollAlg alg,
                        const CollSelector& selector) {
  const int p = static_cast<int>(members.size());
  const auto groups = detail::group_by_node(place, members);
  if (alg == CollAlg::kAuto) {
    alg = selector.choose(kind, bytes, p, groups.size() > 1);
  }
  std::vector<std::vector<detail::Transfer>> lists(static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    const detail::CollTopo topo{p, r, &groups};
    detail::Recorder rec(lists[static_cast<size_t>(r)], bytes);
    switch (kind) {
      case TraceEvent::Kind::kAllReduce:
        detail::run_allreduce(topo, rec, alg);
        break;
      case TraceEvent::Kind::kAllGather:
        detail::run_allgather(topo, rec, alg);
        break;
      case TraceEvent::Kind::kAllToAll:
        detail::run_alltoall(topo, rec, alg);
        break;
      default:
        throw MpiUsageError(strprintf("price_collective: %s is not priced",
                                      trace_kind_name(kind)));
    }
  }
  return detail::replay(place, members, lists);
}

}  // namespace xg::mpi

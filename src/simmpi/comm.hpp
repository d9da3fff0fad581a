// Communicators and collective operations for the simulated MPI runtime.
//
// The collectives are the ones the CGYRO/XGYRO skeleton calls — AllReduce,
// AllGather, AllToAll and Barrier — implemented with the textbook
// algorithms real MPI libraries use (recursive doubling, ring, Rabenseifner,
// Bruck, pairwise exchange, hierarchical leader schedules) on the eager p2p
// layer. Their cost therefore *emerges* from the message schedule — in
// particular, AllReduce cost grows with the number of participating
// processes, which is exactly the effect the XGYRO paper exploits by
// shrinking the str-phase communicator.
//
// Which algorithm runs is decided per call: an explicit CollAlg request, or
// (the default, CollAlg::kAuto) the run's CollSelector mapping
// (kind, bytes, participants, spans_nodes) → algorithm. The resolved
// algorithm is recorded on the trace rows and member agreement on it is
// enforced by the invariant monitor.
//
// Every collective has a typed form (moves real data) and a `_virtual` form
// (moves byte counts only). Both run the one schedule coll.cpp defines per
// algorithm, through the DES backings of its transfer interfaces below, so
// paper-scale model runs time exactly what small real runs execute — and
// mpi::price_collective prices exactly what both charge.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "simmpi/coll.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace xg::mpi {

class Comm;

namespace detail {

struct Group {
  std::uint64_t context = 0;
  std::string label;
  std::vector<int> members;    ///< world ranks indexed by local rank
  std::uint64_t next_seq = 1;  ///< collective sequence (consistent across
                               ///< members because collective calls are
                               ///< ordered identically on every member)
  std::uint64_t next_split = 1;
  /// NIC-sharing factor for this communicator's traffic. -1 = conservative
  /// default (all ranks of the node contend — correct for bulk-synchronous
  /// phases where sibling communicators run concurrently). A communicator
  /// created with exclusive_network=true instead uses its own max members
  /// per node, modelling a communicator that runs alone on the machine.
  int nic_sharers = -1;
  /// Temporary NIC-sharing override (> 0 wins over nic_sharers) used by the
  /// hierarchical AllReduce: during the inter-node stage only one rank per
  /// node (the leader) injects, so it gets the exclusive per-rank attach
  /// bandwidth. Set by Comm::set_nic_exclusive.
  int nic_override = 0;

  /// Lazily computed topology view (Group objects are per rank — the world
  /// group is cached per Proc, split groups are created per rank — so
  /// in-place mutation here is thread-safe): local ranks grouped by node
  /// (ascending within a node), ordered by node id; empty until computed.
  std::vector<std::vector<int>> node_groups;
};

}  // namespace detail

/// Handle to a nonblocking operation; complete it with Comm::wait. Default
/// constructed = empty (wait is a no-op). Value-semantic and cheap.
class Request {
 public:
  Request() = default;
  [[nodiscard]] bool valid() const { return kind_ != Kind::kNone; }

 private:
  friend class Comm;
  enum class Kind { kNone, kSend, kRecv };
  Kind kind_ = Kind::kNone;
  double send_complete_at_ = 0.0;  // send only
  int src_ = -1;                   // recv only (local rank)
  int tag_ = 0;
  void* data_ = nullptr;
  std::uint64_t bytes_ = 0;
};

class Comm {
 public:
  Comm() = default;

  [[nodiscard]] bool valid() const { return group_ != nullptr; }
  [[nodiscard]] int rank() const { return myrank_; }
  [[nodiscard]] int size() const { return static_cast<int>(group_->members.size()); }
  [[nodiscard]] std::uint64_t context() const { return group_->context; }
  [[nodiscard]] const std::string& label() const { return group_->label; }
  [[nodiscard]] const std::vector<int>& members() const { return group_->members; }
  [[nodiscard]] int world_rank_of(int local) const { return group_->members[local]; }
  [[nodiscard]] Proc& proc() const { return *proc_; }

  // --- point to point (local ranks; user tags must be >= 0) ---------------

  void send_bytes(int dst, int tag, const void* data, std::uint64_t bytes);
  void recv_bytes(int src, int tag, void* data, std::uint64_t bytes);

  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    send_bytes(dst, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void recv(std::span<T> data, int src, int tag) {
    recv_bytes(src, tag, data.data(), data.size_bytes());
  }
  void send_virtual(std::uint64_t bytes, int dst, int tag) {
    send_bytes(dst, tag, nullptr, bytes);
  }
  void recv_virtual(std::uint64_t bytes, int src, int tag) {
    recv_bytes(src, tag, nullptr, bytes);
  }

  // --- nonblocking p2p ------------------------------------------------------
  // isend charges only the CPU-side overhead now; the injection runs on the
  // rank's NIC timeline, so compute performed before wait() overlaps with
  // the transfer — the mechanism behind CGYRO-style comm/compute overlap.
  // irecv records the match; wait() blocks until the message arrives.

  Request isend_bytes(int dst, int tag, const void* data, std::uint64_t bytes);
  Request irecv_bytes(int src, int tag, void* data, std::uint64_t bytes);
  template <typename T>
  Request isend(std::span<const T> data, int dst, int tag) {
    return isend_bytes(dst, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  Request irecv(std::span<T> data, int src, int tag) {
    return irecv_bytes(src, tag, data.data(), data.size_bytes());
  }
  Request isend_virtual(std::uint64_t bytes, int dst, int tag) {
    return isend_bytes(dst, tag, nullptr, bytes);
  }
  Request irecv_virtual(std::uint64_t bytes, int src, int tag) {
    return irecv_bytes(src, tag, nullptr, bytes);
  }

  /// Complete one request (no-op for an empty one); clears it.
  void wait(Request& request);
  /// Complete all requests, in order.
  void waitall(std::span<Request> requests);

  // --- collectives ---------------------------------------------------------
  // The `alg` parameter requests a specific algorithm; the default kAuto
  // defers to the run's CollSelector (see simmpi/coll.hpp).

  void barrier();

  template <typename T, typename Op>
  void allreduce(std::span<T> data, Op op, CollAlg alg = CollAlg::kAuto);
  template <typename T>
  void allreduce_sum(std::span<T> data, CollAlg alg = CollAlg::kAuto) {
    allreduce(data, [](T a, T b) { return a + b; }, alg);
  }
  void allreduce_virtual(std::uint64_t bytes, CollAlg alg = CollAlg::kAuto);

  /// MPI_Alltoall: `send.size() == recv.size() == count_per_rank * size()`.
  template <typename T>
  void alltoall(std::span<const T> send_data, std::span<T> recv_data,
                CollAlg alg = CollAlg::kAuto);
  void alltoall_virtual(std::uint64_t bytes_per_pair,
                        CollAlg alg = CollAlg::kAuto);

  /// MPI_Allgather: `all.size() == mine.size() * size()`.
  template <typename T>
  void allgather(std::span<const T> mine, std::span<T> all,
                 CollAlg alg = CollAlg::kAuto);
  void allgather_virtual(std::uint64_t bytes_per_rank,
                         CollAlg alg = CollAlg::kAuto);

  // --- construction --------------------------------------------------------

  /// Collective: partition members by `color` (>= 0); order within a new
  /// communicator by (key, parent rank). Mirrors MPI_Comm_split.
  /// `exclusive_network`: declare that this communicator's collectives run
  /// with no sibling traffic on the same nodes, so sparse placements get the
  /// per-rank NIC attach bandwidth instead of the full-node fair share.
  /// Leave false (the default) for communicators used in bulk-synchronous
  /// phases where every co-located rank communicates concurrently.
  [[nodiscard]] Comm split(int color, int key, std::string label = "",
                           bool exclusive_network = false) const;

  static Comm make_world(Proc& proc);

  // --- topology view (used by the selector and the collective schedules) ---

  /// True when this communicator's members are placed on more than one node.
  [[nodiscard]] bool spans_nodes() const;
  /// This communicator as the collective schedules see it.
  [[nodiscard]] detail::CollTopo topo() const;

  // --- internals used by the collective impls -----------------------------

  [[nodiscard]] int internal_tag() { return -static_cast<int>(group_->next_seq++ % 1000000000) - 1; }

  /// Model the calling rank as its node's only NIC injector (true) or
  /// restore the communicator's NIC sharing (false): the exclusive window
  /// of the hierarchical AllReduce's leader stage.
  void set_nic_exclusive(bool on) { group_->nic_override = on ? 1 : 0; }

  /// Sequence number the next collective on this communicator will use.
  /// Captured before a collective's impl runs; (context, seq) identifies the
  /// collective instance across members for the invariant monitor.
  [[nodiscard]] std::uint64_t collective_seq() const { return group_->next_seq; }

  /// Resolve a per-call algorithm request: an explicit request passes
  /// through; kAuto consults the run's CollSelector with this communicator's
  /// member-agreed (bytes, participants, spans_nodes) key.
  [[nodiscard]] CollAlg resolve_alg(TraceEvent::Kind kind, std::uint64_t bytes,
                                    CollAlg request) const;

  void trace_collective(TraceEvent::Kind kind, CollAlg alg,
                        std::uint64_t payload_bytes, double t_start,
                        std::uint64_t seq) const;

  /// Epilogue of every collective: report to the invariant monitor (member
  /// agreement on kind/algorithm/participants/bytes, plus bitwise result
  /// identity when `has_hash` — only set for typed collectives whose result
  /// is identical on every member and whose element type has no padding
  /// bytes), then record the trace event.
  void finish_collective(TraceEvent::Kind kind, CollAlg alg,
                         std::uint64_t payload_bytes, double t_start,
                         std::uint64_t seq, bool has_hash,
                         std::uint64_t result_hash) const;

 private:
  Comm(Proc* proc, std::shared_ptr<detail::Group> group, int myrank)
      : proc_(proc), group_(std::move(group)), myrank_(myrank) {}

  void compute_node_info() const;

  Proc* proc_ = nullptr;
  std::shared_ptr<detail::Group> group_;
  int myrank_ = -1;
};

namespace detail {

// DES backings of the transfer interfaces: each transfer is one p2p message
// on the communicator under the running stage's internal tag.

template <typename T, typename Op>
class TypedCollBuf final : public CollBuf {
 public:
  TypedCollBuf(Comm& c, std::span<T> buf, Op op) : c_(c), buf_(buf), op_(op) {}

  [[nodiscard]] size_t count() const override { return buf_.size(); }
  [[nodiscard]] std::uint64_t elem_bytes() const override { return sizeof(T); }

  void send_range(int dst, size_t lo, size_t hi) override {
    c_.send_bytes(dst, tag_, buf_.data() + lo, (hi - lo) * sizeof(T));
  }
  void recv_replace(int src, size_t lo, size_t hi) override {
    c_.recv_bytes(src, tag_, buf_.data() + lo, (hi - lo) * sizeof(T));
  }
  void recv_reduce(int src, size_t lo, size_t hi, bool partner_lower) override {
    scratch_.resize(hi - lo);
    c_.recv_bytes(src, tag_, scratch_.data(), (hi - lo) * sizeof(T));
    for (size_t i = 0; i < hi - lo; ++i) {
      buf_[lo + i] = partner_lower ? op_(scratch_[i], buf_[lo + i])
                                   : op_(buf_[lo + i], scratch_[i]);
    }
  }
  void next_stage() override { tag_ = c_.internal_tag(); }
  void nic_exclusive(bool on) override { c_.set_nic_exclusive(on); }

 private:
  Comm& c_;
  int tag_ = 0;
  std::span<T> buf_;
  Op op_;
  std::vector<T> scratch_;
};

class VirtualCollBuf final : public CollBuf {
 public:
  VirtualCollBuf(Comm& c, std::uint64_t bytes) : c_(c), bytes_(bytes) {}
  [[nodiscard]] size_t count() const override { return bytes_; }
  [[nodiscard]] std::uint64_t elem_bytes() const override { return 1; }
  void send_range(int dst, size_t lo, size_t hi) override {
    c_.send_virtual(hi - lo, dst, tag_);
  }
  void recv_replace(int src, size_t lo, size_t hi) override {
    c_.recv_virtual(hi - lo, src, tag_);
  }
  void recv_reduce(int src, size_t lo, size_t hi, bool) override {
    c_.recv_virtual(hi - lo, src, tag_);
  }
  void next_stage() override { tag_ = c_.internal_tag(); }
  void nic_exclusive(bool on) override { c_.set_nic_exclusive(on); }

 private:
  Comm& c_;
  int tag_ = 0;
  std::uint64_t bytes_;
};

template <typename T>
class TypedBlockBuf final : public BlockBuf {
 public:
  /// `in` may alias nothing in `out`; `count` elements per block.
  TypedBlockBuf(Comm& c, std::span<const T> in, std::span<T> out, size_t count)
      : c_(c), in_(in), out_(out), count_(count) {}

  void send_in(int block, int dst) override {
    c_.send_bytes(dst, tag_, in_.data() + block * count_, count_ * sizeof(T));
  }
  void send_out(int block, int dst) override {
    c_.send_bytes(dst, tag_, out_.data() + block * count_, count_ * sizeof(T));
  }
  void recv_out(int block, int src) override {
    c_.recv_bytes(src, tag_, out_.data() + block * count_, count_ * sizeof(T));
  }
  void copy_in_to_out(int in_block, int out_block) override {
    std::memcpy(out_.data() + out_block * count_, in_.data() + in_block * count_,
                count_ * sizeof(T));
  }
  void send_out_blocks(std::span<const int> blocks, int dst) override {
    scratch_.resize(blocks.size() * count_);
    for (size_t i = 0; i < blocks.size(); ++i) {
      std::memcpy(scratch_.data() + i * count_,
                  out_.data() + static_cast<size_t>(blocks[i]) * count_,
                  count_ * sizeof(T));
    }
    c_.send_bytes(dst, tag_, scratch_.data(), scratch_.size() * sizeof(T));
  }
  void recv_out_blocks(std::span<const int> blocks, int src) override {
    scratch_.resize(blocks.size() * count_);
    c_.recv_bytes(src, tag_, scratch_.data(), scratch_.size() * sizeof(T));
    for (size_t i = 0; i < blocks.size(); ++i) {
      std::memcpy(out_.data() + static_cast<size_t>(blocks[i]) * count_,
                  scratch_.data() + i * count_, count_ * sizeof(T));
    }
  }
  void permute_out(std::span<const int> perm) override {
    std::vector<T> old(out_.begin(), out_.end());
    for (size_t j = 0; j < perm.size(); ++j) {
      std::memcpy(out_.data() + j * count_,
                  old.data() + static_cast<size_t>(perm[j]) * count_,
                  count_ * sizeof(T));
    }
  }
  void next_stage() override { tag_ = c_.internal_tag(); }

 private:
  Comm& c_;
  int tag_ = 0;
  std::span<const T> in_;
  std::span<T> out_;
  size_t count_;
  std::vector<T> scratch_;
};

class VirtualBlockBuf final : public BlockBuf {
 public:
  VirtualBlockBuf(Comm& c, std::uint64_t bytes_per_block)
      : c_(c), bytes_(bytes_per_block) {}
  void send_in(int, int dst) override { c_.send_virtual(bytes_, dst, tag_); }
  void send_out(int, int dst) override { c_.send_virtual(bytes_, dst, tag_); }
  void recv_out(int, int src) override { c_.recv_virtual(bytes_, src, tag_); }
  void copy_in_to_out(int, int) override {}
  void send_out_blocks(std::span<const int> blocks, int dst) override {
    c_.send_virtual(bytes_ * blocks.size(), dst, tag_);
  }
  void recv_out_blocks(std::span<const int> blocks, int src) override {
    c_.recv_virtual(bytes_ * blocks.size(), src, tag_);
  }
  void permute_out(std::span<const int>) override {}
  void next_stage() override { tag_ = c_.internal_tag(); }

 private:
  Comm& c_;
  int tag_ = 0;
  std::uint64_t bytes_;
};

}  // namespace detail

// --- template method definitions -------------------------------------------

template <typename T, typename Op>
void Comm::allreduce(std::span<T> data, Op op, CollAlg alg) {
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::TypedCollBuf<T, Op> buf(*this, data, op);
  const CollAlg ran =
      resolve_alg(TraceEvent::Kind::kAllReduce, data.size_bytes(), alg);
  detail::run_allreduce(topo(), buf, ran);
  finish_collective(TraceEvent::Kind::kAllReduce, ran, data.size_bytes(), t0,
                    seq, /*has_hash=*/true,
                    Hasher().bytes(data.data(), data.size_bytes()).digest());
}

template <typename T>
void Comm::alltoall(std::span<const T> send_data, std::span<T> recv_data,
                    CollAlg alg) {
  XG_REQUIRE(send_data.size() == recv_data.size(),
             "alltoall: send/recv size mismatch");
  XG_REQUIRE(send_data.size() % size() == 0,
             "alltoall: payload not divisible by communicator size");
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  const size_t count = send_data.size() / size();
  detail::TypedBlockBuf<T> buf(*this, send_data, recv_data, count);
  const CollAlg ran =
      resolve_alg(TraceEvent::Kind::kAllToAll, count * sizeof(T), alg);
  detail::run_alltoall(topo(), buf, ran);
  finish_collective(TraceEvent::Kind::kAllToAll, ran, count * sizeof(T), t0,
                    seq, /*has_hash=*/false, 0);
}

template <typename T>
void Comm::allgather(std::span<const T> mine, std::span<T> all, CollAlg alg) {
  XG_REQUIRE(all.size() == mine.size() * static_cast<size_t>(size()),
             "allgather: output must be size() blocks");
  const double t0 = proc_->now();
  const std::uint64_t seq = collective_seq();
  detail::TypedBlockBuf<T> buf(*this, mine, all, mine.size());
  const CollAlg ran =
      resolve_alg(TraceEvent::Kind::kAllGather, mine.size_bytes(), alg);
  detail::run_allgather(topo(), buf, ran);
  finish_collective(TraceEvent::Kind::kAllGather, ran, mine.size_bytes(), t0,
                    seq, /*has_hash=*/true,
                    Hasher().bytes(all.data(), all.size_bytes()).digest());
}

}  // namespace xg::mpi

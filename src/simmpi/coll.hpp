// Collective algorithms for the simulated MPI runtime: their schedules,
// the decision table that picks one per call, and the pricer that says
// what a call costs without running the DES.
//
// Every algorithm is written once, in coll.cpp, against two small transfer
// interfaces (CollBuf for AllReduce ranges, BlockBuf for AllGather/AllToAll
// blocks) and the communicator's topology (CollTopo). Two backends run the
// same schedule:
//   * the DES (comm.hpp): real or virtual messages on a Comm, charged on
//     each rank's virtual clock;
//   * price_collective (below): records every rank's transfers and replays
//     them through the same LogGP step the DES charges
//     (net::Placement::send/receive), on one thread.
// So the planner, the service fast path and the autotuner price exactly
// the schedule the DES executes.
//
// Real MPI libraries do not run one textbook algorithm per collective: they
// consult a tuned decision table mapping (collective, message size,
// communicator size, topology) to an algorithm (OpenMPI's
// coll_tuned_decision_fixed, ported into SimGrid/SMPI's openmpi selector).
// CollSelector is that table for simmpi. Every Comm collective entered with
// CollAlg::kAuto asks the run's selector; the chosen algorithm is recorded
// on the per-participant trace rows and checked for member agreement by the
// invariant monitor.
//
// The decision key is (kind, bytes, participants, spans_nodes):
//   * bytes is the per-rank logical payload exactly as traced —
//     total buffer bytes for allreduce, per-rank block bytes for allgather,
//     per-pair block bytes for alltoall;
//   * spans_nodes is whether the communicator's members live on more than
//     one node (rank→node placement from simnet::MachineSpec).
// All four are member-agreed quantities, so every member resolves the same
// algorithm without extra communication.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simmpi/stats.hpp"
#include "simnet/machine.hpp"

namespace xg::mpi {

/// Inverse of coll_alg_name. Throws xg::InputError on an unknown name.
CollAlg coll_alg_from_name(std::string_view name);

/// Lower-case table key for a selector-governed collective kind
/// ("allreduce", "allgather", "alltoall"); nullptr for the barrier, which
/// the selector does not govern.
const char* coll_kind_key(TraceEvent::Kind kind);

/// Inverse of coll_kind_key. Throws xg::InputError on an unknown key.
TraceEvent::Kind coll_kind_from_key(std::string_view key);

/// The algorithms a decision table may pick for `kind` (empty span for
/// ungoverned kinds). kBrokenForTesting is requestable per-call but never
/// selectable.
std::span<const CollAlg> selectable_algs(TraceEvent::Kind kind);

[[nodiscard]] bool alg_valid_for(TraceEvent::Kind kind, CollAlg alg);

/// One decision-table row: first rule matching
/// (kind, bytes <= max_bytes, participants <= max_participants,
/// spans_nodes in {any, required value}) wins.
struct CollRule {
  TraceEvent::Kind kind{};
  std::uint64_t max_bytes = std::numeric_limits<std::uint64_t>::max();
  int max_participants = std::numeric_limits<int>::max();
  int spans_nodes = -1;  ///< -1 = any, 0 = intra-node only, 1 = internode only
  CollAlg alg = CollAlg::kAuto;
};

class CollSelector {
 public:
  /// Empty rule list: every decision falls through to the built-in tuned
  /// table.
  CollSelector() = default;

  /// Custom decision table (e.g. loaded from an xgyro_colltune JSON table).
  /// Rules are validated: the algorithm must be selectable for the rule's
  /// kind. Decisions not covered by any rule fall through to the built-in
  /// tuned table. Throws xg::InputError on an invalid rule.
  explicit CollSelector(std::vector<CollRule> rules,
                        std::string origin = "custom");

  /// Built-in tuned table: size and communicator-size cutoffs taken from an
  /// xgyro_colltune sweep (Rabenseifner for large AllReduce payloads, Bruck
  /// for small AllGather/AllToAll blocks).
  static const CollSelector& tuned();

  /// The fixed pre-selector behavior (recursive-doubling/ring AllReduce at a
  /// 64 KiB cutoff, one textbook algorithm for everything else). Kept as an
  /// ablation baseline so benches can price the selector itself.
  static const CollSelector& legacy();

  /// Resolve "tuned" / "legacy" to the built-in instances; nullptr for any
  /// other name.
  static const CollSelector* named(std::string_view name);

  /// Map a collective call to the algorithm that should run. Never returns
  /// kAuto for a governed kind; returns kAuto for ungoverned kinds.
  [[nodiscard]] CollAlg choose(TraceEvent::Kind kind, std::uint64_t bytes,
                               int participants, bool spans_nodes) const;

  [[nodiscard]] const std::vector<CollRule>& rules() const { return rules_; }
  [[nodiscard]] const std::string& origin() const { return origin_; }
  [[nodiscard]] bool is_legacy() const { return legacy_; }

 private:
  std::vector<CollRule> rules_;
  std::string origin_ = "tuned";
  bool legacy_ = false;
};

namespace detail {

/// What a schedule knows of its communicator: its size, the caller's local
/// rank, and the members grouped by node (local ranks ascending within a
/// node, groups ordered by node id; only the hierarchical AllReduce reads
/// them).
struct CollTopo {
  int size = 1;
  int rank = 0;
  const std::vector<std::vector<int>>* node_groups = nullptr;
};

/// Local ranks of `members` (world ranks in local-rank order) grouped by
/// the node `place` puts them on, in CollTopo::node_groups order.
std::vector<std::vector<int>> group_by_node(const net::Placement& place,
                                            std::span<const int> members);

/// Transfer interface of the AllReduce schedules: element ranges [lo, hi)
/// of one count()-element buffer, exchanged with peers named by local rank.
class CollBuf {
 public:
  virtual ~CollBuf() = default;
  [[nodiscard]] virtual size_t count() const = 0;
  [[nodiscard]] virtual std::uint64_t elem_bytes() const = 0;
  virtual void send_range(int dst, size_t lo, size_t hi) = 0;
  virtual void recv_replace(int src, size_t lo, size_t hi) = 0;
  /// Receive [lo,hi) and fold into the local buffer. `partner_lower` fixes
  /// the operand order so floating-point results are rank-order stable.
  virtual void recv_reduce(int src, size_t lo, size_t hi,
                           bool partner_lower) = 0;
  /// Start the schedule's next stage under a fresh message tag. Every
  /// schedule opens with one; the linear AllReduce opens a second for its
  /// broadcast.
  virtual void next_stage() = 0;
  /// Open (true) or close the NIC-exclusive window: while open, the caller
  /// is its node's only NIC injector and gets the full per-rank attach
  /// bandwidth (the hierarchical AllReduce's leader exchange).
  virtual void nic_exclusive(bool on) = 0;
  [[nodiscard]] std::uint64_t total_bytes() const { return count() * elem_bytes(); }
};

/// Transfer interface of the AllGather/AllToAll schedules: uniform blocks
/// of an input and an output buffer, exchanged with peers by local rank.
class BlockBuf {
 public:
  virtual ~BlockBuf() = default;
  virtual void send_in(int block, int dst) = 0;
  virtual void send_out(int block, int dst) = 0;
  virtual void recv_out(int block, int src) = 0;
  virtual void copy_in_to_out(int in_block, int out_block) = 0;
  /// Send/receive a set of out-blocks as ONE message (packed contiguously in
  /// `blocks` order). The Bruck algorithms owe their log(P) step count to
  /// this aggregation; P separate messages would pay P latencies.
  virtual void send_out_blocks(std::span<const int> blocks, int dst) = 0;
  virtual void recv_out_blocks(std::span<const int> blocks, int src) = 0;
  /// In-place block permutation: new_out[j] = old_out[perm[j]]. No traffic.
  virtual void permute_out(std::span<const int> perm) = 0;
  /// As CollBuf::next_stage.
  virtual void next_stage() = 0;
};

/// Run one collective's schedule for the caller at `topo.rank` with a
/// resolved algorithm (never kAuto). Throws MpiUsageError when `alg` is not
/// valid for the collective.
void run_allreduce(const CollTopo& topo, CollBuf& buf, CollAlg alg);
void run_allgather(const CollTopo& topo, BlockBuf& buf, CollAlg alg);
void run_alltoall(const CollTopo& topo, BlockBuf& buf, CollAlg alg);

}  // namespace detail

/// Virtual seconds one collective takes when the world ranks `members` (a
/// communicator's members in local-rank order, created without
/// exclusive_network) all enter it at t = 0 on `place`: bit-for-bit the
/// makespan the DES charges for the same call in its `_virtual` form (a
/// typed call splits ring and Rabenseifner chunks on element boundaries,
/// which can move a few bytes between chunks). Computed without threads,
/// by recording every member's transfers and replaying them through
/// net::Placement::send/receive. `bytes` follows the decision-key
/// convention; kAuto resolves through `selector` as the DES would. Throws
/// MpiUsageError on an algorithm not valid for `kind`.
double price_collective(const net::Placement& place,
                        std::span<const int> members, TraceEvent::Kind kind,
                        std::uint64_t bytes, CollAlg alg = CollAlg::kAuto,
                        const CollSelector& selector = CollSelector::tuned());

}  // namespace xg::mpi

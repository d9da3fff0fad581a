// Collective algorithm selection for the simulated MPI runtime.
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

}  // namespace xg::mpi

// xgyro_colltune — autotuner for the collective decision table.
//
// For every (collective kind, payload bucket, participant bucket) cell it
// prices each selectable algorithm with mpi::price_collective on a
// Frontier-like machine sized to the participant count — the makespan the
// discrete-event simulator charges for that call, without running it —
// takes the argmin, and emits the winners as an xgyro.coll_table JSON
// document that `xgyro_cli --coll-table` (and RuntimeOptions::coll_selector)
// consume:
//
//   ./examples/xgyro_colltune --out my_table.json
//   ./examples/xgyro_cli --ensemble ... --coll-table my_table.json
//
// --smoke shrinks the sweep to a few cells and additionally verifies that
// the emitted document round-trips: written to disk, loaded back through
// telemetry::load_coll_table, and queried at every swept cell, the selector
// must return exactly the algorithm the sweep measured as the winner.
//
// Exit status: 0 success; 1 usage error or failed smoke validation.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "simmpi/coll.hpp"
#include "simnet/machine.hpp"
#include "telemetry/colltable.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace {

using xg::mpi::CollAlg;
using Kind = xg::mpi::TraceEvent::Kind;

struct Options {
  std::string out = "coll_table.json";
  bool smoke = false;
};

void print_help() {
  std::printf(
      "usage: xgyro_colltune [options]\n\n"
      "  --out FILE   write the tuned decision table here "
      "[coll_table.json]\n"
      "  --smoke      tiny sweep; verify the emitted table round-trips\n"
      "               through the selector, then delete it\n"
      "  --help       print this reference and exit\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out") {
      if (i + 1 >= argc) throw xg::InputError("missing value after --out");
      o.out = argv[++i];
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--help" || a == "-h") {
      print_help();
      std::exit(0);
    } else {
      throw xg::InputError(xg::strprintf("unknown option '%s'", a.c_str()));
    }
  }
  return o;
}

/// Makespan of one collective instance run with `alg` on a world of
/// `participants` ranks.
double time_alg(Kind kind, CollAlg alg, int participants,
                std::uint64_t bytes) {
  const xg::net::Placement place(
      xg::net::frontier_like((participants + 7) / 8));  // 8 ranks/node
  std::vector<int> world(static_cast<size_t>(participants));
  std::iota(world.begin(), world.end(), 0);
  return xg::mpi::price_collective(place, world, kind, bytes, alg);
}

struct Cell {
  Kind kind{};
  std::uint64_t bytes = 0;
  int participants = 0;
  bool spans = false;
  CollAlg winner = CollAlg::kAuto;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace xg;
  try {
    const Options opt = parse_args(argc, argv);

    const std::vector<Kind> kinds = {Kind::kAllReduce, Kind::kAllGather,
                                     Kind::kAllToAll};
    std::vector<std::uint64_t> bytes_buckets = {256, 4096, 65536, 1048576};
    std::vector<int> participant_buckets = {2, 8, 64, 256};
    if (opt.smoke) {
      bytes_buckets = {1024, 65536};
      participant_buckets = {4, 16};
    }
    const int ranks_per_node = net::frontier_like(1).ranks_per_node;

    std::vector<Cell> cells;
    for (const Kind kind : kinds) {
      for (const std::uint64_t bytes : bytes_buckets) {
        for (const int p : participant_buckets) {
          Cell cell;
          cell.kind = kind;
          cell.bytes = bytes;
          cell.participants = p;
          cell.spans = p > ranks_per_node;
          double best = 0.0;
          for (const CollAlg alg : mpi::selectable_algs(kind)) {
            const double t = time_alg(kind, alg, p, bytes);
            if (cell.winner == CollAlg::kAuto || t < best) {
              cell.winner = alg;
              best = t;
            }
          }
          std::printf("%-9s %8llu B  p=%-4d %-10s -> %-18s %10.3f us\n",
                      mpi::coll_kind_key(kind),
                      static_cast<unsigned long long>(bytes), p,
                      cell.spans ? "internode" : "intra-node",
                      mpi::coll_alg_name(cell.winner), best * 1e6);
          cells.push_back(cell);
        }
      }
    }

    // One rule per cell, ordered (kind, bytes asc, participants asc) so the
    // selector's first-match scan resolves each swept cell to its own row.
    std::vector<mpi::CollRule> rules;
    rules.reserve(cells.size());
    for (const Cell& cell : cells) {
      mpi::CollRule rule;
      rule.kind = cell.kind;
      rule.max_bytes = cell.bytes;
      rule.max_participants = cell.participants;
      rule.spans_nodes = cell.spans ? 1 : 0;
      rule.alg = cell.winner;
      rules.push_back(rule);
    }
    const mpi::CollSelector tuned(
        std::move(rules),
        strprintf("colltune%s sweep: %zu cells", opt.smoke ? " --smoke" : "",
                  cells.size()));
    telemetry::write_coll_table(opt.out, tuned);
    std::printf("decision table (%zu rules) written to %s\n",
                tuned.rules().size(), opt.out.c_str());

    if (opt.smoke) {
      // Round-trip gate: the table on disk, loaded back, must resolve every
      // swept cell to the measured winner.
      const auto loaded = telemetry::load_coll_table(opt.out);
      int mismatches = 0;
      for (const Cell& cell : cells) {
        const CollAlg got = loaded->choose(cell.kind, cell.bytes,
                                           cell.participants, cell.spans);
        if (got != cell.winner) {
          std::fprintf(stderr,
                       "colltune smoke: %s %llu B p=%d: table resolves '%s', "
                       "sweep measured '%s'\n",
                       mpi::coll_kind_key(cell.kind),
                       static_cast<unsigned long long>(cell.bytes),
                       cell.participants, mpi::coll_alg_name(got),
                       mpi::coll_alg_name(cell.winner));
          ++mismatches;
        }
      }
      std::filesystem::remove(opt.out);
      if (mismatches != 0) {
        throw Error(strprintf("%d cell(s) failed the round-trip check",
                              mismatches));
      }
      std::printf("colltune smoke: %zu cells round-tripped through the "
                  "selector\n",
                  cells.size());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "xgyro_colltune: %s\n", e.what());
    return 1;
  }
}

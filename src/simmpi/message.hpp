// Message and per-rank mailbox for the simulated MPI runtime.
//
// Delivery model: eager buffered send. The sender never blocks; it deposits
// the message (with a virtual arrival timestamp) into the receiver's mailbox.
// A receive blocks the *OS thread* until a matching message exists, then
// advances the receiver's *virtual clock* to max(local, arrival). Virtual
// time is therefore independent of real thread scheduling.
//
// Deadlock detection: sends never block and there are no wildcard receives,
// so a rank can only wait in Mailbox::take, and only for one (context, src,
// tag) key. The run keeps one count of ranks that are neither finished nor
// blocked in take(). take() decrements it before it waits; deliver()
// re-increments it, under the receiver's lock, when it hands the blocked
// owner its match. The take() that brings the count to zero runs the run's
// stall callback: no rank can ever send again, so a blocked rank is an
// exact deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

namespace xg::mpi {

struct Message {
  std::uint64_t context = 0;  ///< communicator context id
  int src_world = -1;         ///< sender's world rank
  int tag = 0;
  double arrival_s = 0.0;        ///< virtual time the message reaches dst
  std::uint64_t bytes = 0;       ///< logical payload size
  std::vector<std::byte> data;   ///< empty for virtual payloads
  bool is_virtual = false;
};

/// The (context, src, tag) key a blocked receive is waiting for.
struct AwaitedKey {
  std::uint64_t context = 0;
  int src_world = -1;
  int tag = 0;
};

/// One mailbox per world rank. Matching is (context, src, tag), FIFO within
/// a channel — the order messages were sent on that channel.
class Mailbox {
 public:
  /// Reset per-run state: clears any leftover messages and the abort flag.
  /// `runnable` is the run's count of ranks neither finished nor blocked in
  /// take(); `on_stall` runs, without this mailbox's lock held, when a
  /// take() here brings that count to zero.
  void begin_run(std::atomic<int>& runnable, std::function<void()> on_stall);

  void deliver(Message msg);

  /// Block until a matching message arrives (or the run aborts), remove and
  /// return it. Throws xg::Error if the run was aborted.
  Message take(std::uint64_t context, int src_world, int tag);

  /// Wake all blocked takers with an abort indication.
  void abort();

  /// The key the owner is blocked on, or nullopt if it is not blocked.
  [[nodiscard]] std::optional<AwaitedKey> awaited() const;

  /// Number of undelivered messages (used by shutdown sanity checks).
  [[nodiscard]] size_t pending() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool aborted_ = false;
  bool blocked_ = false;  ///< owner waits in take() and is counted out
  AwaitedKey awaited_;
  std::atomic<int>* runnable_ = nullptr;
  std::function<void()> on_stall_;
};

}  // namespace xg::mpi

// Message and per-rank mailbox for the simulated MPI runtime.
//
// Delivery model: eager buffered send. The sender never blocks; it deposits
// the message (with a virtual arrival timestamp) into the receiver's mailbox.
// A receive parks the receiving rank's *fiber* (fiber.hpp) until a matching
// message exists, then advances the receiver's *virtual clock* to
// max(local, arrival). Virtual time is therefore independent of how fibers
// are scheduled on the worker threads.
//
// Deadlock detection: sends never block and there are no wildcard receives,
// so a rank can only wait in Mailbox::take, and only for one (context, src,
// tag) key. The run keeps one count of ranks that are neither finished nor
// blocked in take(). take() decrements it before it parks; deliver()
// re-increments it, under the receiver's lock, when it hands the blocked
// owner its match and queues the owner's fiber. The take() that brings the
// count to zero runs the run's stall callback: every run queue is empty and
// no fiber is running, so no rank can ever send again, and a blocked rank is
// an exact deadlock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

namespace xg::mpi {

namespace detail {
class Fiber;
}  // namespace detail

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

  friend bool operator==(const AwaitedKey&, const AwaitedKey&) = default;
};

/// One mailbox per world rank. Matching is (context, src, tag), FIFO within
/// a channel — the order messages were sent on that channel.
class Mailbox {
 public:
  /// Reset per-run state: clears any leftover messages and the abort flag.
  /// `runnable` is the run's count of ranks neither finished nor blocked in
  /// take(); `on_stall` runs, without this mailbox's lock held, when a
  /// take() here brings that count to zero. `owner` is the fiber of the
  /// rank that owns this mailbox, the only caller of take().
  void begin_run(std::atomic<int>& runnable, std::function<void()> on_stall,
                 detail::Fiber& owner);

  void deliver(Message msg);

  /// Park the owner's fiber until a matching message arrives (or the run
  /// aborts), remove and return it. Throws xg::Error if the run was aborted.
  Message take(std::uint64_t context, int src_world, int tag);

  /// Make a parked owner runnable with an abort indication.
  void abort();

  /// The key the owner is blocked on, or nullopt if it is not blocked.
  [[nodiscard]] std::optional<AwaitedKey> awaited() const;

  /// Number of undelivered messages (used by shutdown sanity checks).
  [[nodiscard]] size_t pending() const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// A pending message, linked into its channel's FIFO.
  struct Slot {
    Message msg;
    std::uint32_t next = kNil;
  };
  /// One bucket of the open-addressing channel table: a channel's key and
  /// the ends of its FIFO. head == kNil marks an empty bucket; a channel
  /// leaves the table when its last message is taken.
  struct Channel {
    AwaitedKey key;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] size_t home_bucket(const AwaitedKey& key) const;
  /// The bucket holding `key`, or the empty bucket where it would go.
  [[nodiscard]] size_t find(const AwaitedKey& key) const;
  void erase_bucket(size_t i);
  void grow_table();

  // Storage is reused across messages: once warm, the mailbox allocates
  // nothing per message (a real payload's bytes are the sender's copy).
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Channel> table_;  ///< power-of-two size, linear probing
  size_t channels_ = 0;         ///< non-empty buckets
  size_t pending_ = 0;
  bool aborted_ = false;
  bool blocked_ = false;  ///< owner waits in take() and is counted out
  bool parked_ = false;   ///< owner parked and not yet queued by a wake
  AwaitedKey awaited_;
  std::atomic<int>* runnable_ = nullptr;
  std::function<void()> on_stall_;
  detail::Fiber* owner_ = nullptr;
};

}  // namespace xg::mpi

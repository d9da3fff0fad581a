#include "simmpi/message.hpp"

#include "simmpi/fiber.hpp"
#include "util/error.hpp"

namespace xg::mpi {

namespace {

constexpr size_t kInitialBuckets = 16;

}  // namespace

void Mailbox::begin_run(std::atomic<int>& runnable,
                        std::function<void()> on_stall, detail::Fiber& owner) {
  const std::scoped_lock lock(mu_);
  slots_.clear();
  free_slots_.clear();
  table_.assign(kInitialBuckets, Channel{});
  channels_ = 0;
  pending_ = 0;
  aborted_ = false;
  blocked_ = false;
  parked_ = false;
  runnable_ = &runnable;
  on_stall_ = std::move(on_stall);
  owner_ = &owner;
}

size_t Mailbox::home_bucket(const AwaitedKey& key) const {
  std::uint64_t h = key.context * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.src_world))
        << 32) |
       static_cast<std::uint32_t>(key.tag);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h) & (table_.size() - 1);
}

size_t Mailbox::find(const AwaitedKey& key) const {
  const size_t mask = table_.size() - 1;
  size_t i = home_bucket(key);
  while (table_[i].head != kNil && !(table_[i].key == key)) i = (i + 1) & mask;
  return i;
}

void Mailbox::erase_bucket(size_t i) {
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless its home bucket lies cyclically in (hole, member].
  const size_t mask = table_.size() - 1;
  for (size_t j = (i + 1) & mask; table_[j].head != kNil; j = (j + 1) & mask) {
    const size_t home = home_bucket(table_[j].key);
    const bool stays =
        i <= j ? (i < home && home <= j) : (i < home || home <= j);
    if (!stays) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i] = Channel{};
  --channels_;
}

void Mailbox::grow_table() {
  std::vector<Channel> old(table_.size() * 2);
  old.swap(table_);
  for (const Channel& ch : old) {
    if (ch.head != kNil) table_[find(ch.key)] = ch;
  }
}

void Mailbox::deliver(Message msg) {
  bool wake = false;
  {
    const std::scoped_lock lock(mu_);
    const AwaitedKey key{msg.context, msg.src_world, msg.tag};
    if (blocked_ && key == awaited_) {
      blocked_ = false;
      runnable_->fetch_add(1);
      wake = parked_;
      parked_ = false;
    }
    std::uint32_t s = 0;
    if (free_slots_.empty()) {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(msg), kNil});
    } else {
      s = free_slots_.back();
      free_slots_.pop_back();
      slots_[s].msg = std::move(msg);
    }
    size_t i = find(key);
    if (table_[i].head != kNil) {
      slots_[table_[i].tail].next = s;
      table_[i].tail = s;
    } else {
      if (2 * (channels_ + 1) > table_.size()) {
        grow_table();
        i = find(key);
      }
      table_[i] = Channel{key, s, s};
      ++channels_;
    }
    ++pending_;
  }
  if (wake) owner_->wake();
}

Message Mailbox::take(std::uint64_t context, int src_world, int tag) {
  const AwaitedKey key{context, src_world, tag};
  std::unique_lock lock(mu_);
  if (aborted_) throw Error("simmpi: run aborted while waiting for a message");
  size_t i = find(key);
  if (table_[i].head == kNil) {
    awaited_ = key;
    blocked_ = true;
    parked_ = true;
    const bool stalled = runnable_->fetch_sub(1) == 1;
    lock.unlock();
    if (stalled) on_stall_();
    // The wake that clears parked_ (a matching deliver or an abort) queues
    // this fiber exactly once, even if it came before the switch.
    owner_->park();
    lock.lock();
    if (aborted_) {
      // Count the rank back in so it leaves the run exactly once, on exit.
      if (blocked_) runnable_->fetch_add(1);
      blocked_ = false;
      throw Error("simmpi: run aborted while waiting for a message");
    }
    i = find(key);
    XG_ASSERT_MSG(table_[i].head != kNil, "mailbox: woken without a match");
  }
  Channel& ch = table_[i];
  const std::uint32_t s = ch.head;
  Message msg = std::move(slots_[s].msg);
  ch.head = slots_[s].next;
  slots_[s].next = kNil;
  free_slots_.push_back(s);
  --pending_;
  if (ch.head == kNil) erase_bucket(i);
  return msg;
}

void Mailbox::abort() {
  bool wake = false;
  {
    const std::scoped_lock lock(mu_);
    aborted_ = true;
    wake = parked_;
    parked_ = false;
  }
  if (wake) owner_->wake();
}

std::optional<AwaitedKey> Mailbox::awaited() const {
  const std::scoped_lock lock(mu_);
  if (!blocked_) return std::nullopt;
  return awaited_;
}

size_t Mailbox::pending() const {
  const std::scoped_lock lock(mu_);
  return pending_;
}

}  // namespace xg::mpi

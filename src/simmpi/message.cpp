#include "simmpi/message.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace xg::mpi {

namespace {

bool matches(const Message& m, const AwaitedKey& key) {
  return m.context == key.context && m.src_world == key.src_world &&
         m.tag == key.tag;
}

}  // namespace

void Mailbox::begin_run(std::atomic<int>& runnable,
                        std::function<void()> on_stall) {
  const std::scoped_lock lock(mu_);
  queue_.clear();
  aborted_ = false;
  blocked_ = false;
  runnable_ = &runnable;
  on_stall_ = std::move(on_stall);
}

void Mailbox::deliver(Message msg) {
  bool wake = false;
  {
    const std::scoped_lock lock(mu_);
    if (blocked_ && matches(msg, awaited_)) {
      blocked_ = false;
      runnable_->fetch_add(1);
      wake = true;
    }
    queue_.push_back(std::move(msg));
  }
  if (wake) cv_.notify_one();
}

Message Mailbox::take(std::uint64_t context, int src_world, int tag) {
  const AwaitedKey key{context, src_world, tag};
  const auto match = [&key](const Message& m) { return matches(m, key); };
  std::unique_lock lock(mu_);
  if (aborted_) throw Error("simmpi: run aborted while waiting for a message");
  auto it = std::find_if(queue_.begin(), queue_.end(), match);
  if (it == queue_.end()) {
    awaited_ = key;
    blocked_ = true;
    if (runnable_->fetch_sub(1) == 1) {
      lock.unlock();
      on_stall_();
      lock.lock();
    }
    cv_.wait(lock, [this] { return aborted_ || !blocked_; });
    if (aborted_) {
      // Count the rank back in so it leaves the run exactly once, on exit.
      if (blocked_) runnable_->fetch_add(1);
      blocked_ = false;
      throw Error("simmpi: run aborted while waiting for a message");
    }
    it = std::find_if(queue_.begin(), queue_.end(), match);
    XG_ASSERT_MSG(it != queue_.end(), "mailbox: woken without a match");
  }
  Message msg = std::move(*it);
  queue_.erase(it);
  return msg;
}

void Mailbox::abort() {
  {
    const std::scoped_lock lock(mu_);
    aborted_ = true;
  }
  cv_.notify_all();
}

std::optional<AwaitedKey> Mailbox::awaited() const {
  const std::scoped_lock lock(mu_);
  if (!blocked_) return std::nullopt;
  return awaited_;
}

size_t Mailbox::pending() const {
  const std::scoped_lock lock(mu_);
  return queue_.size();
}

}  // namespace xg::mpi

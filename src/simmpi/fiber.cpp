#include "simmpi/fiber.hpp"

#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "util/error.hpp"
#include "util/format.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define XG_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define XG_TSAN_FIBERS 1
#endif

namespace xg::mpi::detail {

namespace {

constexpr std::size_t kStackBytes = std::size_t{8} << 20;
constexpr std::size_t kCachedStacks = 256;

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// Stacks of finished runs, reused by later runs. A fresh stack costs a
/// page fault for each page a rank touches and an munmap when the run ends
/// (about 30 us per rank on a 4-core VM, more than a small run's own
/// work), so up to kCachedStacks stay mapped and populated between runs.
class StackCache {
 public:
  /// The lowest usable address of a stack with a guard page below it.
  char* take() {
    {
      const std::scoped_lock lock(mu_);
      if (!free_.empty()) {
        char* stack = free_.back();
        free_.pop_back();
#ifdef XG_ASAN_FIBERS
        // Frames the last fiber never returned from leave poisoned redzones.
        __asan_unpoison_memory_region(stack, kStackBytes);
#endif
        return stack;
      }
    }
    const std::size_t page = page_bytes();
    void* map = mmap(nullptr, page + kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED) {
      throw Error(strprintf("simmpi: cannot map a rank stack: %s",
                            std::strerror(errno)));
    }
    if (mprotect(map, page, PROT_NONE) != 0) {
      const int err = errno;
      munmap(map, page + kStackBytes);
      throw Error(strprintf("simmpi: cannot protect a rank stack guard: %s",
                            std::strerror(err)));
    }
    return static_cast<char*>(map) + page;
  }

  void give(char* stack) {
    {
      const std::scoped_lock lock(mu_);
      if (free_.size() < kCachedStacks) {
        free_.push_back(stack);
        return;
      }
    }
    munmap(stack - page_bytes(), page_bytes() + kStackBytes);
  }

 private:
  std::mutex mu_;
  std::vector<char*> free_;
};

StackCache& stack_cache() {
  static StackCache cache;
  return cache;
}

}  // namespace

struct Worker {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Fiber*> queue;  ///< FIFO run queue
  bool idle = false;         ///< waiting on cv; the next wake() notifies
  int live = 0;              ///< fibers not yet finished (worker-private)
  ucontext_t sched_ctx{};
  // The scheduler's own stack and sanitizer fiber, for the annotations.
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* sanitizer_fiber = nullptr;

  void resume(Fiber& f) {
#ifdef XG_ASAN_FIBERS
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, f.stack_, kStackBytes);
#endif
#ifdef XG_TSAN_FIBERS
    __tsan_switch_to_fiber(f.sanitizer_fiber_, 0);
#endif
    swapcontext(&sched_ctx, &f.ctx_);
#ifdef XG_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  }

  void loop() {
#ifdef XG_TSAN_FIBERS
    sanitizer_fiber = __tsan_get_current_fiber();
#endif
    std::unique_lock lock(mu);
    while (live > 0) {
      if (queue.empty()) {
        idle = true;
        cv.wait(lock, [this] { return !queue.empty(); });
        idle = false;
      }
      Fiber* f = queue.front();
      queue.pop_front();
      lock.unlock();
      resume(*f);
      if (f->done_) --live;
      lock.lock();
    }
  }
};

Fiber::~Fiber() {
  if (stack_ != nullptr) stack_cache().give(stack_);
#ifdef XG_TSAN_FIBERS
  if (sanitizer_fiber_ != nullptr) __tsan_destroy_fiber(sanitizer_fiber_);
#endif
}

void Fiber::entry(unsigned hi, unsigned lo) {
  const auto addr = (static_cast<std::uintptr_t>(hi) << 32) | lo;
  auto* self = reinterpret_cast<Fiber*>(addr);
#ifdef XG_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &self->worker_->stack_bottom,
                                  &self->worker_->stack_size);
#endif
  (*self->body_)(self->index_);
  self->done_ = true;
  self->park();  // never resumed
}

void Fiber::make_context() {
  // getcontext returns twice, so it lives apart from the caller's locals.
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_;
  ctx_.uc_stack.ss_size = kStackBytes;
  ctx_.uc_link = nullptr;
  const auto addr = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
              static_cast<unsigned>(addr >> 32),
              static_cast<unsigned>(addr & 0xffffffffU));
}

void Fiber::park() {
  Worker& w = *worker_;
#ifdef XG_ASAN_FIBERS
  // A finished fiber passes no save slot, which frees its fake stack.
  __sanitizer_start_switch_fiber(done_ ? nullptr : &fake_stack_,
                                 w.stack_bottom, w.stack_size);
#endif
#ifdef XG_TSAN_FIBERS
  __tsan_switch_to_fiber(w.sanitizer_fiber, 0);
#endif
  swapcontext(&ctx_, &w.sched_ctx);
#ifdef XG_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_, &w.stack_bottom, &w.stack_size);
#endif
}

void Fiber::wake() {
  Worker& w = *worker_;
  bool notify = false;
  {
    const std::scoped_lock lock(w.mu);
    w.queue.push_back(this);
    notify = w.idle;
    w.idle = false;
  }
  if (notify) w.cv.notify_one();
}

FiberScheduler::FiberScheduler(int nfibers) {
  XG_REQUIRE(nfibers >= 1, "FiberScheduler: need at least one fiber");
  const int nworkers = std::min(nfibers, usable_cpus());
  workers_.reserve(static_cast<size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  fibers_.reserve(static_cast<size_t>(nfibers));
  for (int r = 0; r < nfibers; ++r) {
    auto f = std::make_unique<Fiber>();
    f->index_ = r;
    const auto w = static_cast<std::int64_t>(r) * nworkers / nfibers;
    f->worker_ = workers_[static_cast<size_t>(w)].get();
    f->stack_ = stack_cache().take();
    f->make_context();
#ifdef XG_TSAN_FIBERS
    f->sanitizer_fiber_ = __tsan_create_fiber(0);
#endif
    fibers_.push_back(std::move(f));
  }
}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::run(const std::function<void(int)>& body) {
  for (auto& f : fibers_) {
    XG_ASSERT_MSG(f->body_ == nullptr, "FiberScheduler: run() called twice");
    f->body_ = &body;
    f->worker_->queue.push_back(f.get());
    f->worker_->live += 1;
  }
  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (auto& worker : workers_) {
    threads.emplace_back([w = worker.get()] { w->loop(); });
  }
  for (auto& t : threads) t.join();
}

}  // namespace xg::mpi::detail

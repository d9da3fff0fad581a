// Fibers for simulated ranks. Each rank runs on its own ucontext stack
// (8 MiB reserved with MAP_NORESERVE, like a pthread default, above a
// PROT_NONE guard page). Up to 256 stacks stay mapped between runs for
// reuse, as glibc caches thread stacks. The fibers of one run are multiplexed over
// W = min(ranks, CPUs this process may run on) worker threads created for
// that run. Fiber r is pinned to worker r·W/n, so a fiber never migrates
// and contiguous ranks (one node, one ensemble member) share a worker.
//
// A fiber gives up its worker only by park(), which switches to the
// worker's scheduler context; wake() puts it back on that worker's FIFO run
// queue from any thread. A worker sleeps on its condvar only while its run
// queue is empty. Every run queue starts with all of its fibers in rank
// order, so every rank reaches its first block before any woken rank
// resumes.
//
// Rules for code that runs on a fiber:
//   - never block the OS thread waiting on another rank (no condvar, no
//     spin): the rank that would release it may be queued on the same
//     worker;
//   - no communication inside a `catch` handler: the C++ exception globals
//     (the caught-exception stack) belong to the worker thread, which other
//     fibers use while this one is parked;
//   - hold a mutex only for a short section with no receive inside.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace xg::mpi::detail {

struct Worker;

class Fiber {
 public:
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

  /// Called by the running fiber itself: switch to its worker's scheduler.
  /// Returns once wake() has queued the fiber and the worker resumes it.
  /// The caller must make sure exactly one wake() follows each park().
  void park();

  /// Queue this fiber on its worker's run queue (callable from any thread).
  void wake();

 private:
  friend class FiberScheduler;
  friend struct Worker;

  static void entry(unsigned hi, unsigned lo);
  void make_context();

  ucontext_t ctx_{};
  Worker* worker_ = nullptr;
  const std::function<void(int)>* body_ = nullptr;
  int index_ = -1;
  bool done_ = false;
  char* stack_ = nullptr;  ///< lowest usable stack address
  void* sanitizer_fiber_ = nullptr;  ///< TSan fiber handle
  void* fake_stack_ = nullptr;       ///< ASan fake-stack save slot
};

/// The fibers and worker threads of one run.
class FiberScheduler {
 public:
  /// Allocates one stack per fiber; throws xg::Error if that fails.
  explicit FiberScheduler(int nfibers);
  ~FiberScheduler();
  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  [[nodiscard]] Fiber& fiber(int index) { return *fibers_[index]; }

  /// Run body(r) on fiber r for every r and return when all have returned.
  /// `body` must not throw.
  void run(const std::function<void(int)>& body);

 private:
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace xg::mpi::detail

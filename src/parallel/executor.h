// Copyright (c) SkyBench-NG contributors.
// Persistent work-stealing executor: the one scheduler every parallel
// loop in the library runs on, standing in for the paper's OpenMP runtime
// (§VII-A2). Q-Flow and Hybrid fork and join twice per α-block, so the
// workers must persist across phases (per-phase thread spawning would
// dwarf the work, §IV-B); the engine extends that to N in-flight queries
// sharing one bounded worker set instead of spawning N×threads OS threads.
//
// Every loop runs on an Executor::TaskGroup. An algorithm run opens one
// group at Options::ResolvedThreads() on Options::ResolvedExecutor(): the
// engine's executor, or Executor::Default() for one-shot library and CLI
// calls. A width-1 group calls its loop bodies directly and never touches
// an executor.
//
// Shape: each worker owns a Chase-Lev-style deque (LIFO local pop, FIFO
// steal); external threads submit through a small mutex-guarded injection
// queue and then help execute while they wait (caller-runs). Idle workers
// park on a condvar. All synchronisation is via seq_cst atomics on the
// deque indices and atomic cells — deliberately no atomic_thread_fence,
// which ThreadSanitizer does not model.
#ifndef SKY_PARALLEL_EXECUTOR_H_
#define SKY_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.h"

namespace sky {

/// Persistent work-stealing scheduler. `threads` counts total parallelism:
/// the submitting thread participates (caller-runs), so `threads - 1`
/// worker std::threads are spawned and `threads == 1` spawns nothing —
/// every TaskGroup then runs fully inline, preserving the paper's t=1
/// baselines.
///
/// Lifetime: all TaskGroups must be destroyed (i.e. have completed) before
/// the Executor is destroyed.
class Executor {
 public:
  explicit Executor(int threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Total parallelism (including a caller), >= 1.
  int threads() const { return threads_; }

  /// Hardware concurrency with a sane floor of 1.
  static int DefaultThreads();

  /// The process-default executor, DefaultThreads() wide, that runs the
  /// groups of calls made without an executor (Options::executor null).
  /// Created on first use and never destroyed.
  static Executor& Default();

  /// Monotonic scheduler counters, exported by the engine as
  /// sky_executor_* metrics (obs satellite).
  struct CountersSnapshot {
    uint64_t tasks = 0;        ///< tasks executed to completion
    uint64_t steals = 0;       ///< tasks taken from another worker's deque
    uint64_t inline_runs = 0;  ///< group submissions run caller-inline
    uint64_t parks = 0;        ///< worker park (sleep) events
    size_t queue_depth = 0;    ///< tasks currently queued, not yet running
  };
  CountersSnapshot Counters() const;

  /// Per-group accounting, surfaced in per-query traces.
  struct GroupStats {
    uint64_t tasks = 0;        ///< tasks submitted through the queues
    uint64_t inline_runs = 0;  ///< submissions run inline (admission/cap)
    uint64_t steals = 0;       ///< of this group's tasks
    int workers_used = 0;      ///< distinct participants (workers + caller)
  };

  /// Scoped fork-join scope with a parallelism cap — the admission-control
  /// unit. `max_parallelism` bounds how many tasks the group keeps in
  /// flight (0 = executor width); submissions beyond the cap run inline on
  /// the submitter (caller-runs backpressure), so a group can never occupy
  /// more than `parallelism()` workers no matter how much it forks.
  /// Effective parallelism is additionally clamped to the executor width;
  /// at 1 every Run() is a plain inline call and every loop calls its body
  /// directly. Not thread-safe: one logical owner submits and waits, and
  /// no loop may be issued from inside a task of the same group; the
  /// spawned tasks themselves may fork nested groups.
  class TaskGroup {
   public:
    TaskGroup(Executor& exec, int max_parallelism)
        : TaskGroup(&exec, max_parallelism) {}
    /// A null `exec` makes a serial group: width 1, every task and loop
    /// inline, no executor touched (what sequential algorithms pass down).
    TaskGroup(Executor* exec, int max_parallelism);
    /// Blocks until all submitted tasks have finished. A still-pending
    /// captured exception is dropped here (destructors cannot throw);
    /// call Wait() explicitly to observe it.
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Effective parallelism (cap clamped to executor width), >= 1.
    int parallelism() const { return parallelism_; }

    /// Submit one task. May run it inline (parallelism()==1, or the group
    /// is at its cap). A task that throws (any exception, including
    /// std::bad_alloc) does not cross the worker loop: the group captures
    /// the first exception, trips the attached CancelToken (if any) so
    /// sibling tasks can stop cooperatively, and rethrows at Wait().
    void Run(std::function<void()> fn);

    /// Block until every submitted task has finished, then rethrow the
    /// first exception any of them raised. The waiting thread helps
    /// execute queued work (any group's — help-first) before sleeping,
    /// so a caller is never idle while its own tasks queue.
    void Wait();

    /// Attach a token to cancel when a task throws, so siblings polling
    /// it unwind instead of finishing a doomed fork-join. Not owned;
    /// must outlive the group.
    void set_cancel_token(const CancelToken* token) { cancel_ = token; }

    /// Dynamic-schedule loop over [0, n): participants repeatedly claim
    /// `grain`-sized chunks from a shared cursor and invoke `fn(begin,
    /// end)` — OpenMP `schedule(dynamic, grain)`, which the skyline phases
    /// need because per-point work is highly skewed (points dominated
    /// early end their scan almost at once). A complete fork-join: returns
    /// after every iteration finished, rethrowing the first exception.
    void ParallelFor(size_t n, size_t grain,
                     const std::function<void(size_t, size_t)>& fn);
    /// Static-schedule loop: slot w of parallelism() gets the w-th of
    /// nearly equal contiguous ranges as `fn(begin, end, w)`. Used where
    /// per-item cost is uniform (L1, masks) and locality matters.
    void ParallelForStatic(size_t n,
                           const std::function<void(size_t, size_t, int)>& fn);

    /// Accounting so far (stable once Wait() has returned).
    GroupStats stats() const;

   private:
    friend class Executor;

    void RunInline(const std::function<void()>& fn);
    /// A width-1 loop body: called directly, without the accounting of
    /// RunInline; an exception trips the attached token and propagates.
    template <typename Body>
    void RunSerial(const Body& body);
    void NoteParticipant();
    void FinishTask();  // called by the executor after a task of ours runs
    void CaptureException(std::exception_ptr e);
    void WaitDone();  // the drain of Wait(), without the rethrow

    Executor* const exec_;  // null for a serial group
    const int parallelism_;
    const CancelToken* cancel_ = nullptr;
    std::atomic<int> pending_{0};  // queued + running tasks
    std::mutex done_mu_;
    std::condition_variable done_cv_;
    std::exception_ptr first_error_;  // guarded by done_mu_
    // Stats (relaxed; read after Wait()).
    std::atomic<uint64_t> tasks_{0};
    std::atomic<uint64_t> inline_runs_{0};
    std::atomic<uint64_t> steals_{0};
    std::atomic<uint64_t> participant_mask_{0};
  };

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  /// Chase-Lev-style deque. Owner pushes/pops at the bottom (LIFO);
  /// thieves CAS the top (FIFO). Ring cells are atomic pointers and the
  /// indices are seq_cst — strictly stronger than the canonical
  /// fence-based formulation, chosen so TSan models every ordering.
  class Deque {
   public:
    Deque();
    ~Deque();
    void Push(Task* t);  // owner only
    Task* Pop();         // owner only
    Task* Steal();       // any thread

   private:
    struct Ring {
      explicit Ring(size_t capacity);
      const size_t capacity;
      const size_t mask;
      std::unique_ptr<std::atomic<Task*>[]> cells;
    };
    Ring* Grow(Ring* old, int64_t top, int64_t bottom);

    std::atomic<int64_t> top_{0};
    std::atomic<int64_t> bottom_{0};
    std::atomic<Ring*> ring_;
    // Retired rings stay alive until destruction: a slow thief may still
    // read cells of an old ring; the top_ CAS arbitrates correctness.
    std::vector<std::unique_ptr<Ring>> retired_;
  };

  void Submit(Task* t);
  /// Try to acquire one queued task without blocking (used by helping
  /// waiters and the worker loop). Sets `stolen` when the task came from
  /// another worker's deque.
  Task* TryAcquire(bool* stolen);
  /// Acquire-and-run one task if any is available. Returns false when no
  /// work could be acquired.
  bool HelpOnce();
  void Execute(Task* t, bool stolen);
  void WorkerLoop(int index);

  const int threads_;
  std::vector<std::unique_ptr<Deque>> deques_;  // one per spawned worker
  std::vector<std::thread> workers_;

  // External submissions (from threads that are not workers of this
  // executor) land here; workers drain it when their deque runs dry.
  std::mutex inject_mu_;
  std::deque<Task*> inject_;

  // Parking. queued_ counts tasks visible in the injection queue plus all
  // deques; a worker only parks while it is 0 (checked under park_mu_, so
  // the submit-side increment + notify cannot be missed).
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<int64_t> queued_{0};
  std::atomic<int> parked_{0};
  bool shutdown_ = false;  // guarded by park_mu_

  // Global counters.
  std::atomic<uint64_t> tasks_total_{0};
  std::atomic<uint64_t> steals_total_{0};
  std::atomic<uint64_t> inline_total_{0};
  std::atomic<uint64_t> parks_total_{0};
};

}  // namespace sky

#endif  // SKY_PARALLEL_EXECUTOR_H_

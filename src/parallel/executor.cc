// Copyright (c) SkyBench-NG contributors.
#include "parallel/executor.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/failpoint.h"

namespace sky {

namespace {

/// Worker identity: set once per worker thread at startup. A thread that
/// is not a worker of executor E (external caller, or a worker of some
/// other executor) submits to E through the injection queue and steals
/// from every deque when helping.
struct WorkerTls {
  Executor* exec = nullptr;
  int index = -1;
};
thread_local WorkerTls tls_worker;

/// A group's effective parallelism: its cap (0 = the executor's width)
/// clamped to [1, executor width]; 1 without an executor.
int GroupWidth(const Executor* exec, int max_parallelism) {
  if (exec == nullptr) return 1;
  const int cap = max_parallelism <= 0 ? exec->threads() : max_parallelism;
  return std::max(1, std::min(cap, exec->threads()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Deque
// ---------------------------------------------------------------------------

Executor::Deque::Ring::Ring(size_t cap)
    : capacity(cap), mask(cap - 1), cells(new std::atomic<Task*>[cap]) {
  for (size_t i = 0; i < cap; ++i) {
    cells[i].store(nullptr, std::memory_order_relaxed);
  }
}

Executor::Deque::Deque() {
  auto ring = std::make_unique<Ring>(64);
  ring_.store(ring.get(), std::memory_order_relaxed);
  retired_.push_back(std::move(ring));
}

Executor::Deque::~Deque() = default;

Executor::Deque::Ring* Executor::Deque::Grow(Ring* old, int64_t top,
                                             int64_t bottom) {
  auto bigger = std::make_unique<Ring>(old->capacity * 2);
  for (int64_t i = top; i < bottom; ++i) {
    bigger->cells[static_cast<size_t>(i) & bigger->mask].store(
        old->cells[static_cast<size_t>(i) & old->mask].load(
            std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  Ring* raw = bigger.get();
  ring_.store(raw, std::memory_order_release);
  retired_.push_back(std::move(bigger));
  return raw;
}

void Executor::Deque::Push(Task* t) {
  const int64_t b = bottom_.load(std::memory_order_relaxed);
  const int64_t top = top_.load(std::memory_order_seq_cst);
  Ring* ring = ring_.load(std::memory_order_relaxed);
  if (b - top >= static_cast<int64_t>(ring->capacity)) {
    ring = Grow(ring, top, b);
  }
  ring->cells[static_cast<size_t>(b) & ring->mask].store(
      t, std::memory_order_relaxed);
  // seq_cst store doubles as the release that publishes the cell to
  // thieves reading bottom_.
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

Executor::Task* Executor::Deque::Pop() {
  const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Ring* ring = ring_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);
  int64_t top = top_.load(std::memory_order_seq_cst);
  if (top <= b) {
    Task* t = ring->cells[static_cast<size_t>(b) & ring->mask].load(
        std::memory_order_relaxed);
    if (top == b) {
      // Last element: race against thieves for it via the top_ CAS.
      if (!top_.compare_exchange_strong(top, top + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_seq_cst)) {
        t = nullptr;
      }
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
    return t;
  }
  bottom_.store(b + 1, std::memory_order_seq_cst);
  return nullptr;
}

Executor::Task* Executor::Deque::Steal() {
  int64_t top = top_.load(std::memory_order_seq_cst);
  const int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (top >= b) return nullptr;
  Ring* ring = ring_.load(std::memory_order_acquire);
  Task* t = ring->cells[static_cast<size_t>(top) & ring->mask].load(
      std::memory_order_relaxed);
  // top_ only ever increases, so the CAS cannot ABA: success means the
  // value read above was the live entry for index `top`.
  if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                    std::memory_order_seq_cst)) {
    return nullptr;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(int threads) : threads_(std::max(1, threads)) {
  const int spawned = threads_ - 1;
  deques_.reserve(static_cast<size_t>(spawned));
  for (int i = 0; i < spawned; ++i) {
    deques_.push_back(std::make_unique<Deque>());
  }
  workers_.reserve(static_cast<size_t>(spawned));
  for (int i = 0; i < spawned; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(park_mu_);
    shutdown_ = true;
  }
  park_cv_.notify_all();
  for (auto& w : workers_) w.join();
  // TaskGroups wait in their destructor, so every queue is empty here.
}

int Executor::DefaultThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

Executor& Executor::Default() {
  // Deliberately leaked: a static Executor would be destroyed (its
  // workers joined) during static destruction, racing any late caller —
  // a detached thread or another static's destructor — still running a
  // loop on it. The parked workers end with the process.
  static Executor* const kDefault = new Executor(DefaultThreads());
  return *kDefault;
}

Executor::CountersSnapshot Executor::Counters() const {
  CountersSnapshot s;
  s.tasks = tasks_total_.load(std::memory_order_relaxed);
  s.steals = steals_total_.load(std::memory_order_relaxed);
  s.inline_runs = inline_total_.load(std::memory_order_relaxed);
  s.parks = parks_total_.load(std::memory_order_relaxed);
  s.queue_depth = static_cast<size_t>(
      std::max<int64_t>(0, queued_.load(std::memory_order_relaxed)));
  return s;
}

void Executor::Submit(Task* t) {
  queued_.fetch_add(1, std::memory_order_seq_cst);
  if (tls_worker.exec == this) {
    deques_[static_cast<size_t>(tls_worker.index)]->Push(t);
  } else {
    std::lock_guard<std::mutex> lock(inject_mu_);
    inject_.push_back(t);
  }
  // Wake a parked worker. A worker publishes parked_ before re-checking
  // queued_ under park_mu_ and we incremented queued_ before reading
  // parked_ (both seq_cst), so at least one side always sees the other:
  // either the worker sees the new task and stays awake, or we see it
  // parked and deliver a notify it cannot miss (the notify is serialised
  // against its wait by park_mu_).
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(park_mu_);
    park_cv_.notify_one();
  }
}

Executor::Task* Executor::TryAcquire(bool* stolen) {
  *stolen = false;
  const bool is_worker = tls_worker.exec == this;
  if (is_worker) {
    if (Task* t = deques_[static_cast<size_t>(tls_worker.index)]->Pop()) {
      queued_.fetch_sub(1, std::memory_order_seq_cst);
      return t;
    }
  }
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (!inject_.empty()) {
      Task* t = inject_.front();
      inject_.pop_front();
      queued_.fetch_sub(1, std::memory_order_seq_cst);
      return t;
    }
  }
  const size_t n = deques_.size();
  if (n != 0) {
    // Rotate the sweep start so thieves spread across victims.
    static thread_local size_t rotation = 0;
    const size_t start = rotation++;
    for (size_t k = 0; k < n; ++k) {
      const size_t j = (start + k) % n;
      if (is_worker && j == static_cast<size_t>(tls_worker.index)) continue;
      if (Task* t = deques_[j]->Steal()) {
        queued_.fetch_sub(1, std::memory_order_seq_cst);
        *stolen = true;
        return t;
      }
    }
  }
  return nullptr;
}

bool Executor::HelpOnce() {
  bool stolen = false;
  Task* t = TryAcquire(&stolen);
  if (t == nullptr) return false;
  Execute(t, stolen);
  return true;
}

void Executor::Execute(Task* t, bool stolen) {
  TaskGroup* group = t->group;
  tasks_total_.fetch_add(1, std::memory_order_relaxed);
  if (stolen) {
    steals_total_.fetch_add(1, std::memory_order_relaxed);
    group->steals_.fetch_add(1, std::memory_order_relaxed);
  }
  group->NoteParticipant();
  try {
    SKY_FAILPOINT("executor_task");
    t->fn();
  } catch (...) {
    // The worker loop is effectively noexcept: an escaping exception
    // would terminate the process. Contain it in the group instead.
    group->CaptureException(std::current_exception());
  }
  delete t;
  group->FinishTask();
}

void Executor::WorkerLoop(int index) {
  tls_worker = {this, index};
  for (;;) {
    bool stolen = false;
    if (Task* t = TryAcquire(&stolen)) {
      Execute(t, stolen);
      continue;
    }
    // Work is nominally queued but a race took it from under us — retry
    // briefly instead of thrashing park/unpark.
    if (queued_.load(std::memory_order_seq_cst) > 0) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(park_mu_);
    if (shutdown_) return;
    parked_.fetch_add(1, std::memory_order_seq_cst);
    if (queued_.load(std::memory_order_seq_cst) > 0) {
      parked_.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    parks_total_.fetch_add(1, std::memory_order_relaxed);
    park_cv_.wait(lock, [&] {
      return shutdown_ || queued_.load(std::memory_order_seq_cst) > 0;
    });
    parked_.fetch_sub(1, std::memory_order_seq_cst);
    if (shutdown_) return;
  }
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

Executor::TaskGroup::TaskGroup(Executor* exec, int max_parallelism)
    : exec_(exec), parallelism_(GroupWidth(exec, max_parallelism)) {}

Executor::TaskGroup::~TaskGroup() { WaitDone(); }

void Executor::TaskGroup::NoteParticipant() {
  int bit = 0;  // external caller / submitting thread
  if (tls_worker.exec == exec_) bit = 1 + std::min(tls_worker.index, 62);
  participant_mask_.fetch_or(uint64_t{1} << bit, std::memory_order_relaxed);
}

void Executor::TaskGroup::RunInline(const std::function<void()>& fn) {
  inline_runs_.fetch_add(1, std::memory_order_relaxed);
  if (exec_ != nullptr) {
    exec_->inline_total_.fetch_add(1, std::memory_order_relaxed);
  }
  NoteParticipant();
  try {
    fn();
  } catch (...) {
    // Same containment as the queued path: the submitter may be mid
    // fork loop; the exception surfaces at Wait() like any other.
    CaptureException(std::current_exception());
  }
}

void Executor::TaskGroup::CaptureException(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(done_mu_);
  if (first_error_ != nullptr) return;  // first exception wins
  first_error_ = std::move(e);
  // Cancel cooperatively so sibling tasks polling the token unwind
  // instead of completing a fork-join whose result will be discarded.
  if (cancel_ != nullptr) cancel_->Cancel(Status::kCancelled);
}

void Executor::TaskGroup::FinishTask() {
  // The decrement happens under done_mu_ so a waiter can only observe
  // pending_ == 0 after we released the lock — it is then safe for it to
  // destroy the group.
  std::lock_guard<std::mutex> lock(done_mu_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv_.notify_all();
  }
}

void Executor::TaskGroup::Run(std::function<void()> fn) {
  // Admission control: at or beyond the cap the submitter runs the task
  // itself (caller-runs backpressure) instead of queueing more work.
  if (parallelism_ == 1 ||
      pending_.load(std::memory_order_relaxed) >= parallelism_) {
    RunInline(fn);
    return;
  }
  tasks_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_acq_rel);
  exec_->Submit(new Task{std::move(fn), this});
}

void Executor::TaskGroup::WaitDone() {
  // Help-first: drain acquirable work (any group's) while our tasks are
  // outstanding; tasks never block, so helping always makes progress.
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (!exec_->HelpOnce()) break;
  }
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void Executor::TaskGroup::Wait() {
  WaitDone();
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    e = std::exchange(first_error_, nullptr);
  }
  if (e != nullptr) std::rethrow_exception(e);
}

template <typename Body>
void Executor::TaskGroup::RunSerial(const Body& body) {
  try {
    body();
  } catch (...) {
    if (cancel_ != nullptr) cancel_->Cancel(Status::kCancelled);
    throw;
  }
}

void Executor::TaskGroup::ParallelFor(
    size_t n, size_t grain, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const int p = parallelism_;
  if (p == 1) {
    RunSerial([&fn, n] { fn(0, n); });
    return;
  }
  grain = std::max<size_t>(1, grain);
  if (n <= grain) {
    RunInline([&fn, n] { fn(0, n); });
    Wait();  // nothing pending, but a captured exception must surface
    return;
  }
  std::atomic<size_t> cursor{0};
  const auto loop = [&cursor, &fn, n, grain] {
    for (;;) {
      const size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      fn(begin, std::min(begin + grain, n));
    }
  };
  const size_t chunks = (n + grain - 1) / grain;
  const int spawn =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(p), chunks)) - 1;
  for (int i = 0; i < spawn; ++i) Run(loop);
  RunInline(loop);  // caller participates before blocking
  Wait();
}

void Executor::TaskGroup::ParallelForStatic(
    size_t n, const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  const int p = parallelism_;
  if (p == 1) {
    RunSerial([&fn, n] { fn(0, n, 0); });
    return;
  }
  const size_t per =
      (n + static_cast<size_t>(p) - 1) / static_cast<size_t>(p);
  for (int w = 1; w < p; ++w) {
    const size_t begin = std::min(n, per * static_cast<size_t>(w));
    const size_t end = std::min(n, begin + per);
    if (begin < end) {
      Run([&fn, begin, end, w] { fn(begin, end, w); });
    }
  }
  const size_t end0 = std::min(n, per);
  if (end0 > 0) {
    RunInline([&fn, end0] { fn(0, end0, 0); });
  }
  Wait();
}

Executor::GroupStats Executor::TaskGroup::stats() const {
  GroupStats s;
  s.tasks = tasks_.load(std::memory_order_relaxed);
  s.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.workers_used =
      std::popcount(participant_mask_.load(std::memory_order_relaxed));
  return s;
}

}  // namespace sky

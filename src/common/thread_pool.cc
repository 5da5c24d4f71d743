#include "common/thread_pool.h"

#include <algorithm>

namespace sumtab {

namespace {

thread_local bool t_on_worker = false;
thread_local QueryScheduleHook* t_schedule_hook = nullptr;

}  // namespace

QueryScheduleHook* CurrentScheduleHook() { return t_schedule_hook; }

ScopedScheduleHook::ScopedScheduleHook(QueryScheduleHook* hook)
    : previous_(t_schedule_hook) {
  t_schedule_hook = hook;
}

ScopedScheduleHook::~ScopedScheduleHook() { t_schedule_hook = previous_; }

void SchedulerCheckpoint() {
  if (t_schedule_hook != nullptr) t_schedule_hook->Checkpoint();
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads = std::max(0, num_threads);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Schedule(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      fn = std::move(queue_.front());
      queue_.pop();
    }
    fn();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: pool workers may outlive static destruction order.
  static ThreadPool* pool = new ThreadPool(HardwareParallelism() - 1);
  return *pool;
}

int ThreadPool::HardwareParallelism() {
  return std::max(1u, std::thread::hardware_concurrency());
}

bool ThreadPool::OnWorkerThread() { return t_on_worker; }

int ParallelLanes(int64_t n, int max_parallel, int64_t min_chunk) {
  if (max_parallel <= 1 || n < min_chunk * 2 || ThreadPool::OnWorkerThread()) {
    return 1;
  }
  int lanes = std::min(max_parallel, ThreadPool::Shared().num_threads() + 1);
  lanes = static_cast<int>(
      std::min<int64_t>(lanes, (n + min_chunk - 1) / min_chunk));
  return std::max(1, lanes);
}

void ParallelFor(int64_t n, int max_parallel,
                 const std::function<void(int, int64_t, int64_t)>& body,
                 int64_t min_chunk) {
  if (n <= 0) return;
  const int lanes = ParallelLanes(n, max_parallel, min_chunk);
  if (lanes == 1) {
    body(0, 0, n);
    return;
  }
  // Deterministic chunking: lane i gets [i*n/lanes, (i+1)*n/lanes).
  // The latch lives on this stack frame, so a worker must finish with it —
  // decrement AND notify — while holding done_mu: the caller cannot observe
  // pending == 0, return and destroy done_mu/done_cv until the last worker
  // has released the lock.
  int pending = lanes - 1;
  std::mutex done_mu;
  std::condition_variable done_cv;
  QueryScheduleHook* hook = CurrentScheduleHook();
  for (int lane = 1; lane < lanes; ++lane) {
    int64_t begin = n * lane / lanes;
    int64_t end = n * (lane + 1) / lanes;
    auto task = [&, lane, begin, end] {
      body(lane, begin, end);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--pending == 0) done_cv.notify_one();
    };
    // With a serving hook installed, the scheduler decides which query's
    // lane runs next; otherwise lanes go straight at the shared pool.
    if (hook != nullptr) {
      hook->Submit(std::move(task));
    } else {
      ThreadPool::Shared().Schedule(std::move(task));
    }
  }
  body(0, 0, n / lanes);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return pending == 0; });
}

}  // namespace sumtab

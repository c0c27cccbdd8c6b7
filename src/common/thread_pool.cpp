#include "common/thread_pool.hpp"

#include <pthread.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace bnsgcn::common {

namespace {

thread_local bool t_on_worker = false;
thread_local bool t_draining_own_job = false; // caller inside its own job
thread_local int t_ops_threads = 1;

} // namespace

// One parallel_for in flight. Workers pull the current job, claim blocks
// from its cursor, and count themselves out via `active`; the caller waits
// on `done` until every helper that signed up has drained.
struct Job {
  std::int64_t n = 0;
  std::int64_t block = 1;
  std::atomic<std::int64_t> cursor{0};
  std::atomic<int> active{0};
  const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
  std::exception_ptr error;             // first only; guarded by error_mu
  std::mutex error_mu;

  void run_blocks() {
    for (;;) {
      const std::int64_t i0 = cursor.fetch_add(block, std::memory_order_relaxed);
      if (i0 >= n) return;
      const std::int64_t i1 = i0 + block < n ? i0 + block : n;
      try {
        (*body)(i0, i1);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        // Keep draining: sibling blocks may still be writing and the
        // caller must not observe a half-finished region after rethrow.
      }
    }
  }
};

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable wake;        // workers wait here for a job
  std::condition_variable done;        // callers wait here for helpers
  Job* job = nullptr;                  // current job, or nullptr when idle
  std::uint64_t job_serial = 0;        // bumped per job so workers never rejoin one
  bool shutdown = false;
  int spawned = 0;
  std::vector<std::thread> threads;

  void worker_loop() {
    t_on_worker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      wake.wait(lock, [&] { return shutdown || (job && job_serial != seen); });
      if (shutdown) return;
      Job* j = job;
      seen = job_serial;
      j->active.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      j->run_blocks();
      lock.lock();
      if (j->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        done.notify_all();
      }
    }
  }

  void ensure_workers(int want) {
    // Caller holds mu.
    while (spawned < want && spawned < kMaxWorkers) {
      threads.emplace_back([this] { worker_loop(); });
      ++spawned;
    }
  }
};

namespace {

// The global pool pointer. Intentionally leaked at process exit (kernel
// calls can race static destruction order); pthread_atfork abandons it in
// forked children — the parent's worker threads don't exist there, so the
// child's first parallel kernel lazily builds a fresh pool.
std::atomic<ThreadPool*> g_pool{nullptr};
std::mutex g_pool_mu;

void atfork_child() {
  // Plain abandon, no frees: the child owns only the calling thread; any
  // mutex/condvar state in the old Impl may be mid-operation and must
  // never be touched again.
  g_pool.store(nullptr, std::memory_order_release);
  t_on_worker = false;
  t_draining_own_job = false;
}

} // namespace

ThreadPool::ThreadPool() : impl_(new Impl) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->wake.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  ThreadPool* p = g_pool.load(std::memory_order_acquire);
  if (p) return *p;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  p = g_pool.load(std::memory_order_acquire);
  if (!p) {
    static bool registered = [] {
      ::pthread_atfork(nullptr, nullptr, &atfork_child);
      return true;
    }();
    (void)registered;
    p = new ThreadPool();
    g_pool.store(p, std::memory_order_release);
  }
  return *p;
}

int ThreadPool::workers() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->spawned;
}

int ThreadPool::hardware_budget() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

bool ThreadPool::in_lane() { return t_on_worker || t_draining_own_job; }

void ThreadPool::parallel_for(
    std::int64_t n, std::int64_t block, int threads,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  BNSGCN_CHECK(n >= 0 && block >= 1);
  if (n == 0) return;
  if (threads <= 1 || n <= block || in_lane()) {
    for (std::int64_t i0 = 0; i0 < n; i0 += block)
      body(i0, i0 + block < n ? i0 + block : n);
    return;
  }
  Job job;
  job.n = n;
  job.block = block;
  job.body = &body;
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->ensure_workers(threads - 1);
    impl_->job = &job;
    ++impl_->job_serial;
    impl_->wake.notify_all();
  }
  // The caller is one of the lanes: it races the workers for blocks, so a
  // parallel_for never blocks waiting for a worker to become free. While it
  // drains, it is a lane like any worker: a nested parallel_for from one of
  // its blocks runs inline on it, rather than publishing a second job that
  // the helpers would run concurrently with the block that called it.
  // (run_blocks catches every exception, so the flag is always restored.)
  t_draining_own_job = true;
  job.run_blocks();
  t_draining_own_job = false;
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->job = nullptr; // late workers see job==nullptr and keep waiting
    impl_->done.wait(lock, [&] {
      return job.active.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

int ops_threads() { return t_ops_threads; }

void set_ops_threads(int k) { t_ops_threads = k < 1 ? 1 : k; }

int clamp_rank_threads(int requested, int nranks, int hardware) {
  if (requested < 1) requested = 1;
  if (nranks < 1) nranks = 1;
  if (hardware <= 0) hardware = ThreadPool::hardware_budget();
  const int per_rank = hardware / nranks;
  const int cap = per_rank < 1 ? 1 : per_rank;
  return requested < cap ? requested : cap;
}

} // namespace bnsgcn::common

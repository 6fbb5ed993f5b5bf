#ifndef PTC_RUNTIME_THREAD_POOL_HPP
#define PTC_RUNTIME_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/// Host-side execution runtime for the multi-tile accelerator: a fork-join
/// thread pool that the `Accelerator` uses to run per-core tile shards
/// concurrently and that the sweep helpers use to parallelize parameter
/// grids.  All scheduling here is *host* scheduling — simulated hardware
/// results never depend on thread interleaving (see runtime/accelerator.hpp
/// for the determinism contract).
namespace ptc::runtime {

/// Fixed-size fork-join thread pool that runs one `parallel_for` at a time.
///
/// A `parallel_for` publishes one job; the workers and the calling thread
/// claim its indices from a shared atomic counter until the range is
/// exhausted, and the caller returns once every claimed index has finished.
///
/// A one-index range runs inline on the caller, and so does a call made
/// while another job is running — nested inside a body or from a second
/// thread — so nested parallelism cannot deadlock even on a single worker.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 picks std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Runs body(i) for every i in [begin, end) across the pool and waits for
  /// completion.  The calling thread claims indices too.  Every index runs
  /// even if some throw; the first exception thrown is then rethrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Job;

  void worker_loop();
  static void run(Job& job);

  std::mutex mutex_;
  std::condition_variable wake_;
  std::shared_ptr<Job> job_;       // guarded by mutex_; latest published job
  std::size_t generation_ = 0;     // guarded by mutex_; bumped per job
  bool stop_ = false;              // guarded by mutex_
  std::atomic<bool> busy_{false};  // a published job is still running
  std::vector<std::thread> threads_;  // last: the workers use the above
};

}  // namespace ptc::runtime

#endif  // PTC_RUNTIME_THREAD_POOL_HPP

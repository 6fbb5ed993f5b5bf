#include "runtime/thread_pool.hpp"

#include <exception>

#include "common/expects.hpp"

namespace ptc::runtime {

/// One parallel_for.  Shared between the caller and the workers so a worker
/// that wakes after the job finished can still read `next` safely; it then
/// finds `next >= end` and never touches `body`, which may be gone.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>* body, std::size_t begin,
      std::size_t end)
      : body(body), end(end), next(begin), remaining(end - begin) {}

  const std::function<void(std::size_t)>* body;
  const std::size_t end;
  std::atomic<std::size_t> next;
  std::atomic<std::size_t> remaining;
  std::mutex mutex;  // guards error and finished
  std::condition_variable done;
  std::exception_ptr error;
  bool finished = false;  // set by whoever finishes the last index
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::worker_loop() {
  std::size_t seen = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    run(*job);
  }
}

void ThreadPool::run(Job& job) {
  for (std::size_t i = job.next.fetch_add(1); i < job.end;
       i = job.next.fetch_add(1)) {
    try {
      (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.mutex);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.remaining.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(job.mutex);
      job.finished = true;
      job.done.notify_one();  // only the caller waits
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  expects(static_cast<bool>(body), "parallel_for body must be callable");
  if (begin >= end) return;

  auto job = std::make_shared<Job>(&body, begin, end);
  // The pool publishes one job at a time.  A one-index range, and a call
  // made while another job is in flight (nested inside a body or from a
  // second thread), runs whole on the caller instead.
  bool idle = false;
  const bool fan_out =
      end - begin > 1 && busy_.compare_exchange_strong(idle, true);
  if (fan_out) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = job;
      ++generation_;
    }
    wake_.notify_all();
  }

  run(*job);
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done.wait(lock, [&] { return job->finished; });
  }
  if (fan_out) busy_.store(false);
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace ptc::runtime

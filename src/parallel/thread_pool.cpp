#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace iup::parallel {

namespace {

// True while this thread executes a chunk of some run(); a run() started
// there executes its whole range inline (see thread_pool.hpp).
thread_local bool t_in_chunk = false;

// Runs one chunk with t_in_chunk set.  Only reached with t_in_chunk
// false: a run() inside a chunk never queues.
template <typename Fn>
void run_as_chunk(const Fn& fn) {
  t_in_chunk = true;
  fn();
  t_in_chunk = false;
}

}  // namespace

std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                std::size_t ways,
                                                std::size_t c) {
  if (ways == 0) ways = 1;
  const std::size_t base = n / ways;
  const std::size_t extra = n % ways;
  // The first `extra` chunks get base+1 elements; pure integer arithmetic,
  // so the partition depends only on (n, ways, c).
  const std::size_t begin = c * base + std::min(c, extra);
  const std::size_t size = base + (c < extra ? 1 : 0);
  return {begin, begin + size};
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct ThreadPool::Impl {
  struct Task {
    const void* batch_tag;  ///< identity of the run() that enqueued it
    std::function<void()> fn;
  };

  std::mutex mutex;
  std::condition_variable work_cv;
  std::deque<Task> queue;
  std::vector<std::thread> threads;
  bool stopping = false;

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      work_cv.wait(lock, [this] { return stopping || !queue.empty(); });
      if (stopping && queue.empty()) return;
      auto task = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      run_as_chunk(task.fn);
      lock.lock();
    }
  }

  // Pop-and-run this batch's still-queued chunks on the calling thread,
  // so the pool makes progress even with zero free workers.  Only the
  // caller's own chunks: executing an unrelated batch's chunk here could
  // self-deadlock a caller that holds a lock that chunk also takes.
  void help_drain(const void* batch_tag) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      const auto it = std::find_if(
          queue.begin(), queue.end(),
          [batch_tag](const Task& t) { return t.batch_tag == batch_tag; });
      if (it == queue.end()) break;
      auto task = std::move(*it);
      queue.erase(it);
      lock.unlock();
      run_as_chunk(task.fn);
      lock.lock();
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl) {
  impl_->threads.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

std::size_t ThreadPool::workers() const { return impl_->threads.size(); }

void ThreadPool::run(std::size_t n, std::size_t ways, const ChunkBody& body) {
  if (n == 0) return;
  ways = std::min(ways, n);
  if (ways <= 1 || t_in_chunk) {
    body(0, n);
    return;
  }

  struct Batch {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t pending;
    std::exception_ptr error;
  };
  auto batch = std::make_shared<Batch>();
  batch->pending = ways;
  // Every chunk — caller- or worker-executed — runs through this wrapper:
  // a throwing body never escapes a worker thread (which would terminate
  // the process) and never lets run() return before all chunks finished
  // (the queued closures reference `body` on the caller's stack).  The
  // first exception is rethrown on the caller once the batch completes.
  const auto run_chunk = [&body, batch, n, ways](std::size_t c) {
    try {
      const auto [begin, end] = chunk_range(n, ways, c);
      body(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch->mutex);
      if (!batch->error) batch->error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(batch->mutex);
    if (--batch->pending == 0) batch->done_cv.notify_all();
  };

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (std::size_t c = 1; c < ways; ++c) {
      impl_->queue.push_back({batch.get(), [run_chunk, c] { run_chunk(c); }});
    }
  }
  impl_->work_cv.notify_all();

  // The caller owns chunk 0, then helps with its own still-queued chunks,
  // then waits for chunks picked up by workers.
  run_as_chunk([&run_chunk] { run_chunk(0); });
  impl_->help_drain(batch.get());
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done_cv.wait(lock, [&batch] { return batch->pending == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
}

ThreadPool& ThreadPool::global() {
  // Workers = hardware threads - 1 (the caller participates); at least one
  // worker so the queue/wake machinery is exercised even on 1-core hosts.
  static ThreadPool pool(std::max<std::size_t>(1, resolve_threads(0) - 1));
  return pool;
}

void parallel_for(std::size_t threads, std::size_t n, const ChunkBody& body) {
  if (threads <= 1 || n <= 1) {
    if (n != 0) body(0, n);
    return;
  }
  ThreadPool::global().run(n, threads, body);
}

}  // namespace iup::parallel

#include "exec/thread_pool_backend.h"

#include <algorithm>
#include <cassert>
#include <charconv>

namespace parbox::exec {

namespace {

double SecondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

ThreadPoolBackend::ThreadPoolBackend(int num_workers)
    : epoch_(std::chrono::steady_clock::now()) {
  const int n = std::max(1, num_workers);
  workers_.reserve(static_cast<size_t>(n));
  threads_.reserve(static_cast<size_t>(n));
  for (int w = 0; w < n; ++w) {
    auto ex = std::make_unique<Executor>();
    ex->factory = std::make_unique<bexpr::ExprFactory>();
    workers_.push_back(std::move(ex));
  }
  for (int w = 0; w < n; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(workers_[w].get()); });
  }
}

ThreadPoolBackend::~ThreadPoolBackend() {
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->m);
    worker->cv.notify_one();
  }
  for (std::thread& t : threads_) t.join();
  // Free anything still queued (a destructor racing in-flight work is
  // a caller bug, but the nodes must not leak).
  for (auto& worker : workers_) {
    Executor::TaskNode* node = worker->incoming.exchange(nullptr);
    while (node != nullptr) {
      Executor::TaskNode* next = node->next;
      delete node;
      node = next;
    }
  }
  Executor::TaskNode* node = coord_.incoming.exchange(nullptr);
  while (node != nullptr) {
    Executor::TaskNode* next = node->next;
    delete node;
    node = next;
  }
}

void ThreadPoolBackend::Enqueue(Executor* ex, Task task) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  auto* node = new Executor::TaskNode{std::move(task), nullptr};
  Executor::TaskNode* head = ex->incoming.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!ex->incoming.compare_exchange_weak(head, node,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
  if (head == nullptr) {
    // Empty -> non-empty transition: the consumer may be parked.
    std::lock_guard<std::mutex> lock(ex->m);
    ex->cv.notify_one();
  }
}

ThreadPoolBackend::Executor::TaskNode* ThreadPoolBackend::TakeAll(
    Executor* ex) {
  Executor::TaskNode* chain =
      ex->incoming.exchange(nullptr, std::memory_order_acquire);
  // The stack is LIFO by push; reverse for the FIFO order a site's
  // serialized compute queue promises.
  Executor::TaskNode* fifo = nullptr;
  while (chain != nullptr) {
    Executor::TaskNode* next = chain->next;
    chain->next = fifo;
    fifo = chain;
    chain = next;
  }
  return fifo;
}

void ThreadPoolBackend::RunChain(Executor* ex, Executor::TaskNode* chain,
                                 bool locked) {
  while (chain != nullptr) {
    Executor::TaskNode* next = chain->next;
    const auto start = std::chrono::steady_clock::now();
    if (locked) {
      std::shared_lock<std::shared_mutex> doc(doc_mutex_);
      chain->task();
    } else {
      chain->task();
    }
    ex->busy_seconds +=
        SecondsBetween(start, std::chrono::steady_clock::now());
    ++ex->tasks_run;
    delete chain;
    chain = next;
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      NotifyCoordinator();
    }
  }
}

void ThreadPoolBackend::WorkerLoop(Executor* ex) {
  for (;;) {
    Executor::TaskNode* chain = TakeAll(ex);
    if (chain == nullptr) {
      std::unique_lock<std::mutex> lock(ex->m);
      ex->cv.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               ex->incoming.load(std::memory_order_acquire) != nullptr;
      });
      if (ex->incoming.load(std::memory_order_acquire) == nullptr) return;
      continue;
    }
    RunChain(ex, chain, /*locked=*/true);
  }
}

void ThreadPoolBackend::NotifyCoordinator() {
  std::lock_guard<std::mutex> lock(coord_.m);
  coord_.cv.notify_one();
}

void ThreadPoolBackend::Compute(SiteId site, uint64_t, Task done) {
  // Real time is measured, not synthesized from ops: the enqueued task
  // runs as soon as the site's serial queue reaches it.
  Enqueue(executor_of(site), std::move(done));
}

void ThreadPoolBackend::Send(SiteId from, SiteId to, Parcel parcel,
                             std::string_view tag, DeliverFn deliver) {
  Executor* src = executor_of(from);
  Executor* dst = executor_of(to);
  if (from != to) {
    // Contract: Send runs in `from`'s context, so src's meter is ours.
    src->traffic.Record(from, to, parcel.wire_bytes(), tag);
  }
  // Factory domains are per *site*, not per executor: coordinator
  // sites of different hosted namespaces share the coordinator
  // executor but compose into their own sessions' factories.
  if (parcel.needs_encoding() && &site_factory(from) != &site_factory(to)) {
    parcel.Encode();  // the real wire codec, in the sender's context
  }
  Enqueue(dst, [deliver = std::move(deliver),
                parcel = std::move(parcel)]() mutable {
    deliver(std::move(parcel));
  });
}

void ThreadPoolBackend::OnAddSites(int) {
  assert(outstanding_.load(std::memory_order_acquire) == 0 &&
         "AddNamespace requires quiescence");
}

void ThreadPoolBackend::ScheduleAt(double when, Task task) {
  timers_.push(Timer{when, next_timer_seq_++, std::move(task)});
}

double ThreadPoolBackend::now() const {
  return SecondsBetween(epoch_, std::chrono::steady_clock::now());
}

double ThreadPoolBackend::Drain() {
  for (;;) {
    bool progressed = false;
    Executor::TaskNode* chain = TakeAll(&coord_);
    if (chain != nullptr) {
      // Coordinator tasks run unlocked: they are serialized with any
      // MutateExclusive by construction (same thread).
      RunChain(&coord_, chain, /*locked=*/false);
      progressed = true;
    }
    while (!timers_.empty() && timers_.top().when <= now()) {
      Task task = std::move(const_cast<Timer&>(timers_.top()).task);
      timers_.pop();
      const auto start = std::chrono::steady_clock::now();
      task();
      coord_.busy_seconds +=
          SecondsBetween(start, std::chrono::steady_clock::now());
      ++coord_.tasks_run;
      progressed = true;
    }
    if (progressed) continue;

    std::unique_lock<std::mutex> lock(coord_.m);
    if (coord_.incoming.load(std::memory_order_acquire) != nullptr) {
      continue;
    }
    if (outstanding_.load(std::memory_order_acquire) == 0) {
      if (timers_.empty()) break;
      // Quiescent but a timer is pending: sleep straight to it.
      coord_.cv.wait_until(
          lock, epoch_ + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 timers_.top().when)));
      continue;
    }
    // Work is in flight on the workers; wake on handoff or completion
    // (the timeout is a belt-and-braces fallback, not the signal
    // path) — but never sleep past a pending timer's deadline, or
    // admission windows would slip while rounds are in flight.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
    if (!timers_.empty()) {
      const auto timer_deadline =
          epoch_ +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(timers_.top().when));
      if (timer_deadline < deadline) deadline = timer_deadline;
    }
    coord_.cv.wait_until(lock, deadline);
  }
  return now();
}

void ThreadPoolBackend::Reset() {
  assert(outstanding_.load(std::memory_order_acquire) == 0 &&
         "Reset requires quiescence (call after Drain)");
  assert(timers_.empty() && "Reset with timers pending");
  coord_.traffic.Reset();
  coord_.busy_seconds = 0.0;
  coord_.tasks_run = 0;
  for (auto& worker : workers_) {
    worker->traffic.Reset();
    worker->busy_seconds = 0.0;
    worker->tasks_run = 0;
  }
  ResetVisits();
  next_timer_seq_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

const sim::TrafficStats& ThreadPoolBackend::traffic() const {
  // Per-context meters merged on demand; only meaningful (and only
  // safe) once quiescent, like every other metering read.
  merged_traffic_.Reset();
  merged_traffic_.Merge(coord_.traffic);
  for (const auto& worker : workers_) {
    merged_traffic_.Merge(worker->traffic);
  }
  return merged_traffic_;
}

double ThreadPoolBackend::total_busy_seconds() const {
  double total = coord_.busy_seconds;
  for (const auto& worker : workers_) total += worker->busy_seconds;
  return total;
}

void ThreadPoolBackend::AddBackendStats(obs::MetricsSnapshot* stats) const {
  uint64_t tasks = coord_.tasks_run;
  for (const auto& worker : workers_) tasks += worker->tasks_run;
  stats->counters["exec.tasks"] += tasks;
  stats->counters["exec.workers"] += workers_.size();
}

namespace {

Result<std::unique_ptr<ExecBackend>> MakeThreadPoolBackend(
    const sim::NetworkParams&, std::string_view arg) {
  int workers = static_cast<int>(std::thread::hardware_concurrency());
  if (workers < 1) workers = 1;
  if (!arg.empty()) {
    int parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), parsed);
    if (ec != std::errc() || ptr != arg.data() + arg.size() ||
        parsed < 1 || parsed > 1024) {
      return Status::InvalidArgument(
          "backend \"threads\" takes a worker count 1..1024 (got \"" +
          std::string(arg) + "\")");
    }
    workers = parsed;
  }
  return std::unique_ptr<ExecBackend>(new ThreadPoolBackend(workers));
}

}  // namespace

PARBOX_REGISTER_EXEC_BACKEND(1, "threads", "threads[:W]", MakeThreadPoolBackend);

}  // namespace parbox::exec

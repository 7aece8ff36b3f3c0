// ThreadPoolBackend: the ExecBackend on real OS threads.
//
// The PDOM scenario of Sec. 1 — parbox as the query kernel of a
// centralized store — wants genuine parallelism, not a virtual clock:
// fragments of one large document evaluated by a persistent worker
// pool. This backend supplies the same substrate contract the
// deterministic simulation does, so every evaluator, the incremental
// update path, and QueryService rounds run on it unchanged:
//
//   * Persistent workers. N threads started once and reused across
//     executions (Session::Execute resets meters, not the pool). Sites
//     are sharded over workers (site -> worker = site mod N, the
//     coordinator site excepted), and each worker owns one pinned
//     hash-consing ExprFactory: site-context formula work never shares
//     mutable state across threads.
//   * Coordinator = the draining thread. Deliveries to the coordinator
//     site run on the thread inside Drain(), against the session's
//     factory — composition, solving, caching and report state stay
//     single-threaded, exactly as evaluators were written.
//   * Real wire codec. A Coded parcel crossing factory domains is
//     serialized in the sender's (worker's) context and decoded by the
//     receiver into its own factory — what distinct processes would do.
//     Same-factory hand-offs (the coordinator's own fragments) skip the
//     codec, like sim local delivery.
//   * Lock-free handoff. Mailboxes are Treiber stacks pushed with a
//     release CAS and drained by their single consumer with one
//     acquire exchange (reversed to FIFO); the mutex/cv pair only
//     parks an idle consumer. Queue operations carry the
//     happens-before edges the context contract promises.
//   * Race-free metering. Traffic is recorded into the *sending*
//     context's per-executor TrafficStats (the contract says Send runs
//     in `from`'s context) and merged once quiescent; visits are
//     relaxed atomics; busy time is measured per worker.
//   * Updates vs. in-flight reads. Worker tasks hold a shared document
//     lock; MutateExclusive (Session::Apply, QueryService::ApplyDelta)
//     takes the exclusive side, so a delta never lands mid-traversal.
//
// The clock is real: now() is seconds since Reset, timers fire on it,
// and Drain's return value is genuine wall time — the number
// bench_x9_backend_throughput gates. Virtual-time figures stay the
// sim's job; answers, visits, bytes, messages and ops are identical
// across backends (tests/backend_differential_test.cc).

#ifndef PARBOX_EXEC_THREAD_POOL_BACKEND_H_
#define PARBOX_EXEC_THREAD_POOL_BACKEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exec/backend.h"

namespace parbox::exec {

class ThreadPoolBackend final : public ExecBackend {
 public:
  explicit ThreadPoolBackend(int num_workers);
  ~ThreadPoolBackend() override;

  std::string_view name() const override { return "threads"; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  bexpr::ExprFactory& site_factory(SiteId site) override {
    // Coordinator sites (one per hosted namespace) compose into their
    // own session's factory; worker sites intern into the worker's.
    if (is_coordinator_site(site)) return namespace_factory(site);
    return *executor_of(site)->factory;
  }

  void Compute(SiteId site, uint64_t ops, Task done) override;
  void Send(SiteId from, SiteId to, Parcel parcel, std::string_view tag,
            DeliverFn deliver) override;
  void ScheduleAt(double when, Task task) override;
  double now() const override;

  double Drain() override;
  void Reset() override;

  void MutateExclusive(const Task& mutate) override {
    std::unique_lock<std::shared_mutex> lock(doc_mutex_);
    mutate();
  }

  const sim::TrafficStats& traffic() const override;
  double total_busy_seconds() const override;
  void AddBackendStats(obs::MetricsSnapshot* stats) const override;

 private:
  /// One execution context: a mailbox plus everything the context owns
  /// (factory, traffic meter, busy clock). Index -1 = the coordinator
  /// (consumer: the thread inside Drain); 0..N-1 = workers.
  struct Executor {
    struct TaskNode {
      Task task;
      TaskNode* next = nullptr;
    };
    /// Lock-free MPSC handoff: producers push with a release CAS; the
    /// one consumer takes the whole stack with an acquire exchange.
    std::atomic<TaskNode*> incoming{nullptr};
    /// Parking only — pushes into an empty mailbox notify.
    std::mutex m;
    std::condition_variable cv;

    std::unique_ptr<bexpr::ExprFactory> factory;  ///< workers only
    sim::TrafficStats traffic;
    double busy_seconds = 0.0;     ///< written by the consumer only
    uint64_t tasks_run = 0;        ///< written by the consumer only
  };

  struct Timer {
    double when = 0.0;
    uint64_t seq = 0;
    Task task;
    bool operator>(const Timer& other) const {
      return std::tie(when, seq) > std::tie(other.when, other.seq);
    }
  };

  Executor* executor_of(SiteId site) {
    if (workers_.empty() || is_coordinator_site(site)) return &coord_;
    return workers_[static_cast<size_t>(site) % workers_.size()].get();
  }
  void OnAddSites(int count) override;

  /// Push onto `ex`'s mailbox (lock-free), waking its consumer if it
  /// might be parked. Accounts the task in outstanding_.
  void Enqueue(Executor* ex, Task task);
  /// Pop everything pushed so far, restoring FIFO order. Returns the
  /// head of a singly linked chain (caller runs + deletes).
  static Executor::TaskNode* TakeAll(Executor* ex);
  /// Run one drained chain in `ex`'s context. `locked` adds the shared
  /// document lock around each task (worker contexts).
  void RunChain(Executor* ex, Executor::TaskNode* chain, bool locked);
  void WorkerLoop(Executor* ex);
  void NotifyCoordinator();

  Executor coord_;
  std::vector<std::unique_ptr<Executor>> workers_;
  std::vector<std::thread> threads_;

  /// Tasks enqueued but not yet finished, across every executor; 0
  /// with empty mailboxes and timer heap means quiescent.
  std::atomic<uint64_t> outstanding_{0};
  std::atomic<bool> stop_{false};

  /// Site-work shared / mutation exclusive (see MutateExclusive).
  std::shared_mutex doc_mutex_;

  /// Coordinator-context timers (admission windows, arrivals), on the
  /// real clock. Touched only by the coordinator thread.
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>
      timers_;
  uint64_t next_timer_seq_ = 0;

  std::chrono::steady_clock::time_point epoch_;

  /// Merged-traffic cache for traffic(); rebuilt when quiescent.
  mutable sim::TrafficStats merged_traffic_;
};

}  // namespace parbox::exec

#endif  // PARBOX_EXEC_THREAD_POOL_BACKEND_H_

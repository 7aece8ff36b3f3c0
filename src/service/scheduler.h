// FairScheduler: weighted fair-share admission across the tenants
// (documents) sharing one execution substrate.
//
// The catalog serves N documents on one backend host; before this
// layer, admission was strictly FIFO — one hot tenant's burst queued
// ahead of everyone and nothing protected a cold tenant's p99. The
// scheduler replaces that with deficit-weighted round robin (DWRR)
// over per-tenant queues:
//
//   * Each tenant has a weight and an optional per-tenant in-flight
//     cap; the scheduler also enforces a small global in-flight cap —
//     the contention point that makes weights matter at all (with
//     unlimited slots every round dispatches immediately and the
//     policy is vacuous).
//   * A dispatch *unit* is one batch round; its cost is the round's
//     distinct-query count, so a tenant flushing wide rounds drains
//     its deficit proportionally faster than one flushing singletons.
//   * Reads queue per tenant and dispatch by DWRR: each visit tops the
//     tenant's deficit up by quantum x weight and dispatches queued
//     rounds while the deficit covers their cost (classic Shreedhar &
//     Varghese).
//
// Only read rounds pass through the scheduler. A delta never does:
// QueryService::SubmitDelta applies it at its arrival, in coordinator
// context, so write visibility is never stuck behind a backlog of
// queued reads.
//
// The scheduler changes WHEN a round starts, never what it computes:
// a deferred round evaluates the document content current at dispatch
// time, exactly like a round whose batch timer fired later (the
// backend differential suite holds scheduler on/off bit-identical
// across sim, threads, and proc:2).
//
// Threading: dispatch callbacks fire synchronously inside Enqueue /
// OnUnitFinished, on whatever execution context called them. Services
// bounce the callback through ExecBackend::ScheduleAt into their own
// coordinator context (all namespace contexts of a shared host drain
// on one thread, so the cross-namespace hop is safe on every
// backend). A mutex guards the queues anyway so the scheduler itself
// is context-agnostic.

#ifndef PARBOX_SERVICE_SCHEDULER_H_
#define PARBOX_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace parbox::service {

/// Per-tenant admission configuration.
struct TenantConfig {
  /// Relative share of dispatch slots under contention. Must be
  /// positive and finite (ValidateTenantConfig).
  double weight = 1.0;
  /// Per-tenant cap on concurrently dispatched read rounds; 0 = no
  /// per-tenant cap (the global cap still applies).
  size_t max_in_flight = 0;
};

/// Rejects non-positive / non-finite weights with a message naming
/// the offending value (config errors should say what to fix).
Status ValidateTenantConfig(const TenantConfig& config);

struct FairSchedulerOptions {
  /// Global cap on concurrently dispatched read rounds across all
  /// tenants — the contention point that makes weights bite.
  size_t max_in_flight = 4;
  /// Deficit added per DWRR visit is quantum x weight, in round-cost
  /// units (distinct queries per round).
  double quantum = 1.0;
};

/// Deficit-weighted round-robin dispatcher. See file comment.
class FairScheduler {
 public:
  using TenantId = int32_t;

  /// Point-in-time view of one tenant's scheduler state.
  struct TenantStats {
    std::string name;
    TenantConfig config;
    size_t queue_depth = 0;       ///< reads queued, not yet dispatched
    size_t peak_queue_depth = 0;  ///< high-water mark of queue_depth
    size_t in_flight = 0;         ///< dispatched, not yet finished
    uint64_t enqueued = 0;        ///< read units ever enqueued
    uint64_t dispatched = 0;      ///< read units ever dispatched
    uint64_t deferred = 0;        ///< read units that had to queue
  };

  explicit FairScheduler(const FairSchedulerOptions& options = {});

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  /// Register a tenant. Fails on invalid config.
  Result<TenantId> AddTenant(std::string name, const TenantConfig& config);

  /// Replace `tenant`'s weight/cap. Takes effect on the next dispatch
  /// decision; already-queued units keep their positions.
  Status Reconfigure(TenantId tenant, const TenantConfig& config);

  /// Hand one read round to the scheduler. It dispatches immediately
  /// when a slot is free and the tenant is within its cap, else
  /// queues until OnUnitFinished frees capacity. `cost` is the unit's
  /// size in deficit units (a round's distinct-query count; clamped
  /// to >= 1). Returns true iff `dispatch` ran before Enqueue returned
  /// (i.e. the unit was not deferred). Per-tenant dispatch order is
  /// FIFO.
  bool Enqueue(TenantId tenant, uint64_t cost,
               std::function<void()> dispatch);

  /// A read unit previously dispatched for `tenant` completed; frees
  /// its slot and pumps the queues (dispatch callbacks for other
  /// tenants may run inside this call).
  void OnUnitFinished(TenantId tenant);

  TenantStats Stats(TenantId tenant) const;
  size_t num_tenants() const;
  /// Dispatched-but-unfinished read units across all tenants.
  size_t total_in_flight() const;

 private:
  struct Unit {
    uint64_t cost = 1;
    std::function<void()> dispatch;
  };

  struct Tenant {
    std::string name;
    TenantConfig config;
    std::deque<Unit> reads;
    double deficit = 0.0;
    size_t in_flight = 0;
    size_t peak_queue_depth = 0;
    uint64_t enqueued = 0;
    uint64_t dispatched = 0;
    uint64_t deferred = 0;
  };

  bool EligibleLocked(const Tenant& t) const {
    return !t.reads.empty() &&
           (t.config.max_in_flight == 0 ||
            t.in_flight < t.config.max_in_flight);
  }

  /// Move every currently dispatchable unit from the queues into
  /// `out` (slot accounting updated under the lock); callbacks run
  /// outside the lock by the caller. The `pumping_` guard collapses
  /// re-entrant pumps (a dispatch callback calling Enqueue /
  /// OnUnitFinished) into one outer loop.
  void PumpLocked(std::vector<Unit>* out);
  void Pump();

  const FairSchedulerOptions options_;
  mutable std::mutex mu_;
  std::vector<Tenant> tenants_;
  size_t total_in_flight_ = 0;
  size_t cursor_ = 0;  ///< DWRR position in tenants_
  /// True when the cursor tenant's drain was cut short by the global
  /// slot cap (not by its deficit): the next pump resumes that
  /// tenant's visit without topping its deficit up again, so a small
  /// max_in_flight can't flatten the weight ratio to 1:1.
  bool mid_visit_ = false;
  bool pumping_ = false;
  bool repump_ = false;
};

}  // namespace parbox::service

#endif  // PARBOX_SERVICE_SCHEDULER_H_

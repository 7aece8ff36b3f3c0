#include "service/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace parbox::service {

Status ValidateTenantConfig(const TenantConfig& config) {
  if (!std::isfinite(config.weight)) {
    return Status::InvalidArgument(
        "tenant weight must be finite, got " +
        std::to_string(config.weight));
  }
  if (config.weight <= 0.0) {
    return Status::InvalidArgument(
        "tenant weight must be positive, got " +
        std::to_string(config.weight) +
        " (use max_in_flight to throttle a tenant, not weight 0)");
  }
  if (config.weight < 1e-6) {
    return Status::InvalidArgument(
        "tenant weight must be >= 1e-6, got " +
        std::to_string(config.weight) +
        " (smaller weights make DWRR rotations unbounded)");
  }
  return Status::OK();
}

FairScheduler::FairScheduler(const FairSchedulerOptions& options)
    : options_(options) {}

Result<FairScheduler::TenantId> FairScheduler::AddTenant(
    std::string name, const TenantConfig& config) {
  PARBOX_RETURN_IF_ERROR(ValidateTenantConfig(config));
  std::lock_guard<std::mutex> lock(mu_);
  Tenant t;
  t.name = std::move(name);
  t.config = config;
  tenants_.push_back(std::move(t));
  return static_cast<TenantId>(tenants_.size() - 1);
}

Status FairScheduler::Reconfigure(TenantId tenant,
                                  const TenantConfig& config) {
  PARBOX_RETURN_IF_ERROR(ValidateTenantConfig(config));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant < 0 || static_cast<size_t>(tenant) >= tenants_.size()) {
      return Status::InvalidArgument("no such tenant: " +
                                     std::to_string(tenant));
    }
    tenants_[static_cast<size_t>(tenant)].config = config;
  }
  // A raised cap or weight may make queued units dispatchable now.
  Pump();
  return Status::OK();
}

bool FairScheduler::Enqueue(TenantId tenant, uint64_t cost,
                            std::function<void()> dispatch) {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant < 0 || static_cast<size_t>(tenant) >= tenants_.size()) {
      // Unknown tenant degrades to scheduler-off semantics rather
      // than dropping work on the floor.
      dispatch();
      return true;
    }
    Tenant& t = tenants_[static_cast<size_t>(tenant)];
    seq = t.enqueued++;
    Unit u;
    u.cost = std::max<uint64_t>(cost, 1);
    u.dispatch = std::move(dispatch);
    t.reads.push_back(std::move(u));
    t.peak_queue_depth = std::max(t.peak_queue_depth, t.reads.size());
  }
  Pump();
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = tenants_[static_cast<size_t>(tenant)];
  // Per-tenant dispatch is FIFO, so unit `seq` ran iff the dispatch
  // counter moved past it.
  const bool dispatched = t.dispatched > seq;
  if (!dispatched) ++t.deferred;
  return dispatched;
}

void FairScheduler::OnUnitFinished(TenantId tenant) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant < 0 || static_cast<size_t>(tenant) >= tenants_.size()) {
      return;
    }
    Tenant& t = tenants_[static_cast<size_t>(tenant)];
    if (t.in_flight > 0) --t.in_flight;
    if (total_in_flight_ > 0) --total_in_flight_;
  }
  Pump();
}

void FairScheduler::PumpLocked(std::vector<Unit>* out) {
  if (tenants_.empty()) return;
  auto dispatch_head = [&](Tenant* t) {
    Unit u = std::move(t->reads.front());
    t->reads.pop_front();
    ++t->in_flight;
    ++t->dispatched;
    ++total_in_flight_;
    out->push_back(std::move(u));
  };
  while (total_in_flight_ < options_.max_in_flight) {
    size_t eligible = 0;
    size_t only = 0;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      if (EligibleLocked(tenants_[i])) {
        ++eligible;
        only = i;
      }
    }
    if (eligible == 0) return;
    if (eligible == 1) {
      // Work-conserving shortcut: with no competition, deficit
      // bookkeeping would only delay the lone queue.
      dispatch_head(&tenants_[only]);
      if (tenants_[only].reads.empty()) tenants_[only].deficit = 0.0;
      continue;
    }
    // DWRR visit. A visit cut short by the global slot cap resumes at
    // the same tenant WITHOUT a fresh top-up (otherwise a tight cap
    // would let every tenant dispatch exactly one unit per slot-free
    // and flatten the weight ratio to 1:1); otherwise advance to the
    // next eligible tenant and top its deficit up by quantum x weight.
    if (!mid_visit_ || !EligibleLocked(tenants_[cursor_])) {
      mid_visit_ = false;
      while (!EligibleLocked(tenants_[cursor_])) {
        cursor_ = (cursor_ + 1) % tenants_.size();
      }
      tenants_[cursor_].deficit +=
          options_.quantum * tenants_[cursor_].config.weight;
    }
    Tenant& t = tenants_[cursor_];
    while (EligibleLocked(t) &&
           total_in_flight_ < options_.max_in_flight &&
           t.deficit >= static_cast<double>(t.reads.front().cost)) {
      t.deficit -= static_cast<double>(t.reads.front().cost);
      dispatch_head(&t);
    }
    // An idle tenant accumulates no credit (standard DWRR: deficit
    // resets when the queue drains, so bursts can't bank history).
    if (t.reads.empty()) t.deficit = 0.0;
    mid_visit_ = EligibleLocked(t) &&
                 total_in_flight_ >= options_.max_in_flight &&
                 t.deficit >= static_cast<double>(t.reads.front().cost);
    if (!mid_visit_) cursor_ = (cursor_ + 1) % tenants_.size();
  }
}

void FairScheduler::Pump() {
  std::unique_lock<std::mutex> lock(mu_);
  if (pumping_) {
    // A dispatch callback re-entered (Enqueue / OnUnitFinished from
    // inside a dispatch); the outer loop below will pick the new
    // state up.
    repump_ = true;
    return;
  }
  pumping_ = true;
  for (;;) {
    repump_ = false;
    std::vector<Unit> ready;
    PumpLocked(&ready);
    if (ready.empty() && !repump_) break;
    lock.unlock();
    for (Unit& u : ready) u.dispatch();
    lock.lock();
  }
  pumping_ = false;
}

FairScheduler::TenantStats FairScheduler::Stats(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  TenantStats stats;
  if (tenant < 0 || static_cast<size_t>(tenant) >= tenants_.size()) {
    return stats;
  }
  const Tenant& t = tenants_[static_cast<size_t>(tenant)];
  stats.name = t.name;
  stats.config = t.config;
  stats.queue_depth = t.reads.size();
  stats.peak_queue_depth = t.peak_queue_depth;
  stats.in_flight = t.in_flight;
  stats.enqueued = t.enqueued;
  stats.dispatched = t.dispatched;
  stats.deferred = t.deferred;
  return stats;
}

size_t FairScheduler::num_tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

size_t FairScheduler::total_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_in_flight_;
}

}  // namespace parbox::service

// TracingBackend: an ExecBackend decorator that emits Compute/Send
// spans and propagates trace contexts across execution contexts.
//
// Wraps ANY backend once its sites exist — sim, threads, or a
// NamespaceBackend view on a shared host — and forwards everything (its
// own site table stays empty); the only added behavior is around
// Compute/Send/RecordVisit when the tracer is enabled AND the calling
// context carries an active TraceContext:
//
//   * Compute: a span covering enqueue -> done (so it includes queue
//     wait on the site's serial queue, exactly the paper's
//     serialization effect), in the site's lane, parented to the
//     ambient span at call time; the done callback runs under the
//     compute span's context, so work it issues (the site's triplet
//     Send) parents beneath it.
//   * Send: a span from send to delivery (wire latency + bandwidth on
//     the sim, real transport on threads), parented to the ambient
//     span at send time. The context crosses in the Parcel's trace
//     metadata; deliver runs under {parcel.trace_id, send span}, so
//     per-site work triggered by a "query" broadcast hangs beneath
//     that site's send span — the per-site visit subtree.
//   * RecordVisit: an instant event in the site's lane.
//
// Timestamps are always the wrapped backend's now() — virtual on the
// sim, so sim traces are deterministic (golden-tested byte-identical).
//
// Cost discipline: Session installs this decorator only when a tracer
// is configured, so the tracing-off hot path is structurally the
// undecorated backend (the <3% bench_x6 overhead gate measures the
// decorator present-but-disabled, which short-circuits on one relaxed
// atomic load per call).

#ifndef PARBOX_OBS_TRACE_BACKEND_H_
#define PARBOX_OBS_TRACE_BACKEND_H_

#include <memory>
#include <string>
#include <utility>

#include "exec/backend.h"
#include "obs/trace.h"

namespace parbox::obs {

class TracingBackend final : public exec::ExecBackend {
 public:
  /// `tracer` must outlive the backend.
  TracingBackend(std::unique_ptr<exec::ExecBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  exec::ExecBackend& inner() { return *inner_; }

  std::string_view name() const override { return inner_->name(); }
  int num_sites() const override { return inner_->num_sites(); }
  exec::SiteId coordinator() const override {
    return inner_->coordinator();
  }
  bexpr::ExprFactory& site_factory(exec::SiteId site) override {
    return inner_->site_factory(site);
  }

  void Compute(exec::SiteId site, uint64_t ops, Task done) override;
  void Send(exec::SiteId from, exec::SiteId to, exec::Parcel parcel,
            std::string_view tag, DeliverFn deliver) override;
  void RecordVisit(exec::SiteId site) override;

  void ScheduleAt(double when, Task task) override {
    inner_->ScheduleAt(when, std::move(task));
  }
  double now() const override { return inner_->now(); }
  double Drain() override { return inner_->Drain(); }
  void Reset() override { inner_->Reset(); }
  void MutateExclusive(const Task& mutate) override {
    inner_->MutateExclusive(mutate);
  }

  const sim::TrafficStats& traffic() const override {
    return inner_->traffic();
  }
  uint64_t visits_at(exec::SiteId site) const override {
    return inner_->visits_at(site);
  }
  double total_busy_seconds() const override {
    return inner_->total_busy_seconds();
  }
  void AddBackendStats(MetricsSnapshot* stats) const override {
    inner_->AddBackendStats(stats);
  }
  uint64_t RecoveryEpoch(exec::SiteId site) const override {
    return inner_->RecoveryEpoch(site);
  }

 private:
  std::unique_ptr<exec::ExecBackend> inner_;
  Tracer* tracer_;
};

}  // namespace parbox::obs

#endif  // PARBOX_OBS_TRACE_BACKEND_H_

// BackendHost: one shared execution substrate hosting many documents.
//
// A catalog serving N documents must not stand up N clusters / N
// thread pools. The host owns ONE underlying ExecBackend (by registry
// spec), which like every backend starts with no sites; every document
// (in fact, every Session joining the host) registers a *namespace* —
// a fresh block of global sites via ExecBackend::AddNamespace — and
// receives a NamespaceBackend: an ExecBackend view scoped to that
// block. Through the view,
//
//   * site ids translate local <-> global (local site s = global
//     base + s), so Session, the evaluators, and QueryService run
//     unchanged;
//   * visits land in the view's own site table (the namespace again,
//     in local ids) as well as the substrate's;
//   * traffic tags are namespace-prefixed on the wire ("d3.query"),
//     which makes the shared substrate's merged meters exactly
//     separable: the view's traffic()/now() present ONLY its
//     namespace's share, with tags unprefixed again — byte-identical
//     to what a dedicated backend would have metered (the
//     tests/catalog_test.cc differential);
//   * Reset() is local: the view zeroes its own visits and snapshots
//     baselines of the clock, busy time and traffic instead of
//     rewinding the substrate under its neighbors, so
//     Session::Execute's rewind-per-run contract holds per namespace;
//   * Drain() drives the WHOLE substrate (work is shared; any
//     namespace's drain finishes everyone's outstanding work) and
//     reports the namespace-relative makespan.
//
// Lifetime: the host must outlive every view it handed out; views are
// owned by their sessions (Session's usual backend slot). Namespaces
// are never recycled — a closed document's sites simply go idle, a
// deliberate simplification (site ids are virtual; idle sim sites cost
// nothing, and thread-pool sites are sharded onto the same fixed
// workers regardless).

#ifndef PARBOX_EXEC_HOST_H_
#define PARBOX_EXEC_HOST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/backend.h"

namespace parbox::exec {

class BackendHost {
 public:
  /// Stand up the shared substrate from a registry spec ("sim",
  /// "threads[:N]"). Bad specs (unknown name, threads:0) fail HERE —
  /// catalog construction time — with the registered backends listed.
  static Result<std::unique_ptr<BackendHost>> Create(
      std::string_view spec, const sim::NetworkParams& network = {});

  /// ExecBackend::AddNamespace on the substrate, returning the scoped
  /// view. Called by Session when SessionOptions::host is set.
  Result<std::unique_ptr<ExecBackend>> OpenNamespace(
      int num_sites, SiteId coordinator,
      bexpr::ExprFactory* coordinator_factory);

  /// The underlying shared substrate (drive it directly to drain all
  /// documents at once).
  ExecBackend& backend() { return *backend_; }
  const ExecBackend& backend() const { return *backend_; }

  const std::string& spec() const { return spec_; }
  int num_namespaces() const { return next_namespace_; }

 private:
  BackendHost() = default;

  std::string spec_;
  std::unique_ptr<ExecBackend> backend_;
  int next_namespace_ = 0;
};

/// The scoped view one namespace sees (see file comment). Exposed for
/// tests; normal code receives it as a plain ExecBackend.
class NamespaceBackend final : public ExecBackend {
 public:
  /// `*shared` must outlive this view. `base` is the first global site
  /// id of a namespace `*shared` already holds, `prefix` its
  /// traffic-tag prefix ("d3.").
  NamespaceBackend(ExecBackend* shared, SiteId base, int num_sites,
                   SiteId coordinator, bexpr::ExprFactory* factory,
                   std::string prefix);

  std::string_view name() const override { return shared_->name(); }

  bexpr::ExprFactory& site_factory(SiteId site) override {
    return shared_->site_factory(base_ + site);
  }

  void Compute(SiteId site, uint64_t ops, Task done) override {
    shared_->Compute(base_ + site, ops, std::move(done));
  }
  void Send(SiteId from, SiteId to, Parcel parcel, std::string_view tag,
            DeliverFn deliver) override;
  void RecordVisit(SiteId site) override {
    ExecBackend::RecordVisit(site);
    shared_->RecordVisit(base_ + site);
  }

  void ScheduleAt(double when, Task task) override {
    shared_->ScheduleAt(when + clock_base_, std::move(task));
  }
  double now() const override { return shared_->now() - clock_base_; }

  double Drain() override { return shared_->Drain() - clock_base_; }
  /// Local rewind: snapshots baselines instead of resetting the shared
  /// substrate under the other namespaces.
  void Reset() override {
    ResetVisits();
    CaptureBaseline();
  }

  void MutateExclusive(const Task& mutate) override {
    shared_->MutateExclusive(mutate);
  }

  const sim::TrafficStats& traffic() const override;
  double total_busy_seconds() const override {
    // Busy time is per worker, not per namespace, on the thread pool;
    // this is the substrate's busy share since the last local Reset.
    return shared_->total_busy_seconds() - baseline_busy_;
  }
  void AddBackendStats(obs::MetricsSnapshot* stats) const override {
    shared_->AddBackendStats(stats);
  }

  uint64_t RecoveryEpoch(SiteId site) const override {
    return shared_->RecoveryEpoch(base_ + site);
  }

 private:
  void CaptureBaseline();

  ExecBackend* shared_;
  SiteId base_;
  std::string prefix_;

  /// Meter/clock baselines as of construction or the last Reset();
  /// every read subtracts them, making the view behave like a freshly
  /// reset dedicated backend.
  double clock_base_ = 0.0;
  double baseline_busy_ = 0.0;
  std::vector<uint64_t> baseline_into_;
  /// Prefixed tag -> (bytes, messages) at baseline.
  std::map<std::string, std::pair<uint64_t, uint64_t>, std::less<>>
      baseline_tags_;

  /// traffic()'s scoped view, rebuilt on demand (quiescent reads only,
  /// like every backend meter).
  mutable sim::TrafficStats scoped_;
};

}  // namespace parbox::exec

#endif  // PARBOX_EXEC_HOST_H_

// SimBackend: the deterministic simulated cluster behind the
// ExecBackend interface.
//
// A thin adapter over sim::Cluster — every verb forwards to the same
// cluster primitive the evaluators used to call directly, so event
// sequences, virtual times, traffic and visit counts are bit-identical
// to the pre-backend figures. All sites of a namespace share that
// namespace's (session's) hash-consing factory, and parcels pass their
// typed local value straight through: nothing is serialized that was
// not serialized before. This backend is the differential oracle the
// thread pool is held to.
//
// Multi-document hosting (AddNamespace): the cluster grows by a block
// of fresh sites per namespace; each block is pinned to its own
// session factory, and blocks never exchange messages, so several
// documents share one virtual clock and one event loop while their
// figures stay exactly those of dedicated clusters.

#ifndef PARBOX_EXEC_SIM_BACKEND_H_
#define PARBOX_EXEC_SIM_BACKEND_H_

#include <string>
#include <vector>

#include "exec/backend.h"
#include "sim/cluster.h"

namespace parbox::exec {

class SimBackend final : public ExecBackend {
 public:
  explicit SimBackend(const BackendConfig& config)
      : cluster_(config.num_sites, config.network),
        coordinator_(config.coordinator) {
    if (config.num_sites > 0) {
      ranges_.push_back(Range{0, config.num_sites,
                              config.coordinator_factory});
    }
  }

  std::string_view name() const override { return "sim"; }
  int num_sites() const override { return cluster_.num_sites(); }
  SiteId coordinator() const override { return coordinator_; }

  Result<SiteId> AddNamespace(
      int num_sites, SiteId coordinator,
      bexpr::ExprFactory* coordinator_factory) override {
    if (num_sites < 1) {
      return Status::InvalidArgument("namespace needs at least one site");
    }
    const SiteId base = cluster_.num_sites();
    cluster_.Grow(num_sites);
    ranges_.push_back(Range{base, num_sites, coordinator_factory});
    if (ranges_.size() == 1) coordinator_ = base + coordinator;
    return base;
  }

  bexpr::ExprFactory& site_factory(SiteId site) override {
    // On the sim every site of a namespace shares the namespace's
    // session factory (the single-factory semantics the figures were
    // recorded under); namespaces never read each other's.
    Range* r = range_of(site);
    return *(r != nullptr ? r->factory : ranges_.front().factory);
  }

  void Compute(SiteId site, uint64_t ops, Task done) override {
    cluster_.Compute(site, ops, std::move(done));
  }

  void Send(SiteId from, SiteId to, Parcel parcel, std::string_view tag,
            DeliverFn deliver) override {
    cluster_.Send(from, to, parcel.wire_bytes(), tag,
                  [deliver = std::move(deliver),
                   parcel = std::move(parcel)]() mutable {
                    deliver(std::move(parcel));
                  });
  }

  void RecordVisit(SiteId site) override { cluster_.RecordVisit(site); }

  void ScheduleAt(double when, Task task) override {
    cluster_.loop().At(when, std::move(task));
  }
  double now() const override { return cluster_.now(); }

  double Drain() override { return cluster_.Run(); }
  void Reset() override { cluster_.Reset(); }

  void MutateExclusive(const Task& mutate) override { mutate(); }

  const sim::TrafficStats& traffic() const override {
    return cluster_.traffic();
  }
  std::vector<uint64_t> visits() const override {
    return cluster_.all_visits();
  }
  uint64_t visits_at(SiteId site) const override {
    return cluster_.visits(site);
  }
  double total_busy_seconds() const override {
    return cluster_.total_busy_seconds();
  }
  void AddBackendStats(obs::MetricsSnapshot* stats) const override {
    stats->counters["exec.sim.events"] += cluster_.loop().events_run();
  }

 private:
  /// One namespace's block of sites and its pinned session factory.
  struct Range {
    SiteId base = 0;
    int num_sites = 0;
    bexpr::ExprFactory* factory = nullptr;
  };

  Range* range_of(SiteId site) {
    for (Range& r : ranges_) {
      if (site >= r.base && site < r.base + r.num_sites) return &r;
    }
    return nullptr;
  }

  sim::Cluster cluster_;
  SiteId coordinator_;
  std::vector<Range> ranges_;
};

}  // namespace parbox::exec

#endif  // PARBOX_EXEC_SIM_BACKEND_H_

// SimBackend: the deterministic simulated cluster behind the
// ExecBackend interface — sites with serialized compute queues
// connected by a latency + bandwidth network, on one virtual clock.
//
// This substitutes for the paper's 10-machine LAN testbed (see
// DESIGN.md). Algorithms really *do* their computation inside the
// scheduled events; the backend only decides *when* things happen:
//
//   * Compute(site, ops, done)  — site performs `ops` abstract kernel
//     operations (element x QList-entry steps). A site runs one task at
//     a time (FIFO), so two fragments on one machine serialize, exactly
//     as in Experiment 4.
//   * Send(from, to, parcel, tag, deliver) — the message arrives after
//     latency + wire_bytes/bandwidth. Local (from == to) delivery is
//     free and unmetered.
//
// All sites of a namespace share that namespace's (session's)
// hash-consing factory, and parcels pass their typed local value
// straight through: nothing is serialized. This backend is the
// differential oracle every other backend is held to.
//
// Multi-document hosting (AddNamespace): the cluster grows by a block
// of fresh sites per namespace; each block is pinned to its own
// session factory, and blocks never exchange messages, so several
// documents share one virtual clock and one event loop while their
// figures stay exactly those of dedicated clusters.

#ifndef PARBOX_EXEC_SIM_BACKEND_H_
#define PARBOX_EXEC_SIM_BACKEND_H_

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "exec/backend.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/traffic.h"

namespace parbox::exec {

class SimBackend final : public ExecBackend {
 public:
  explicit SimBackend(const BackendConfig& config)
      : params_(config.network),
        sites_(static_cast<size_t>(config.num_sites)),
        coordinator_(config.coordinator) {
    // 0 sites is a valid start for a shared multi-namespace substrate
    // (exec::BackendHost) that grows per document via AddNamespace().
    assert(config.num_sites >= 0);
    if (config.num_sites > 0) {
      ranges_.push_back(Range{0, config.num_sites,
                              config.coordinator_factory});
    }
  }

  std::string_view name() const override { return "sim"; }
  int num_sites() const override { return static_cast<int>(sites_.size()); }
  SiteId coordinator() const override { return coordinator_; }

  Result<SiteId> AddNamespace(
      int num_sites, SiteId coordinator,
      bexpr::ExprFactory* coordinator_factory) override {
    if (num_sites < 1) {
      return Status::InvalidArgument("namespace needs at least one site");
    }
    const SiteId base = this->num_sites();
    sites_.resize(sites_.size() + static_cast<size_t>(num_sites));
    ranges_.push_back(Range{base, num_sites, coordinator_factory});
    if (ranges_.size() == 1) coordinator_ = base + coordinator;
    return base;
  }

  bexpr::ExprFactory& site_factory(SiteId site) override {
    // On the sim every site of a namespace shares the namespace's
    // session factory (the single-factory semantics the figures were
    // recorded under); namespaces never read each other's.
    for (const Range& r : ranges_) {
      if (site >= r.base && site < r.base + r.num_sites) return *r.factory;
    }
    return *ranges_.front().factory;
  }

  void Compute(SiteId site, uint64_t ops, Task done) override {
    assert(site >= 0 && site < num_sites());
    Site& s = sites_[site];
    const double duration =
        static_cast<double>(ops) / params_.site_ops_per_second;
    const double finish = std::max(loop_.now(), s.busy_until) + duration;
    s.busy_until = finish;
    s.busy_seconds += duration;
    loop_.At(finish, std::move(done));
  }

  void Send(SiteId from, SiteId to, Parcel parcel, std::string_view tag,
            DeliverFn deliver) override {
    assert(from >= 0 && from < num_sites() && to >= 0 && to < num_sites());
    double transfer = 0.0;  // a local hand-off involves no network
    if (from != to) {
      const uint64_t bytes = parcel.wire_bytes();
      traffic_.Record(from, to, bytes, tag);
      transfer = params_.latency_seconds +
                 static_cast<double>(bytes) /
                     params_.bandwidth_bytes_per_second;
    }
    loop_.After(transfer, [deliver = std::move(deliver),
                           parcel = std::move(parcel)]() mutable {
      deliver(std::move(parcel));
    });
  }

  void RecordVisit(SiteId site) override { ++sites_[site].visits; }

  void ScheduleAt(double when, Task task) override {
    loop_.At(when, std::move(task));
  }
  double now() const override { return loop_.now(); }

  double Drain() override {
    loop_.Run();
    return loop_.now();
  }
  /// Clock 0, no traffic, no visits, every site idle, without
  /// reallocating: every run's report is bit-identical to one on a
  /// fresh backend.
  void Reset() override {
    loop_.Reset();
    traffic_.Reset();
    std::fill(sites_.begin(), sites_.end(), Site{});
  }

  void MutateExclusive(const Task& mutate) override { mutate(); }

  const sim::TrafficStats& traffic() const override { return traffic_; }
  uint64_t visits_at(SiteId site) const override {
    return sites_[site].visits;
  }
  double total_busy_seconds() const override {
    double total = 0.0;
    for (const Site& s : sites_) total += s.busy_seconds;
    return total;
  }
  void AddBackendStats(obs::MetricsSnapshot* stats) const override {
    stats->counters["exec.sim.events"] += loop_.events_run();
  }

 private:
  struct Site {
    double busy_until = 0.0;    ///< when its compute queue drains
    double busy_seconds = 0.0;  ///< compute time charged since Reset
    uint64_t visits = 0;
  };
  /// One namespace's block of sites and its pinned session factory.
  struct Range {
    SiteId base = 0;
    int num_sites = 0;
    bexpr::ExprFactory* factory = nullptr;
  };

  sim::EventLoop loop_;
  sim::NetworkParams params_;
  sim::TrafficStats traffic_;
  std::vector<Site> sites_;
  SiteId coordinator_;
  std::vector<Range> ranges_;
};

}  // namespace parbox::exec

#endif  // PARBOX_EXEC_SIM_BACKEND_H_

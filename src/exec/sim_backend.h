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
// The cluster starts empty and grows by one block of sites per
// AddNamespace; the base class's site table pins each block to its
// session factory, and this class keeps only each site's busy clock.
// Blocks never exchange messages, so several documents share one
// virtual clock and one event loop while their figures stay exactly
// those of dedicated clusters.

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
  explicit SimBackend(const sim::NetworkParams& params = {})
      : params_(params) {}

  std::string_view name() const override { return "sim"; }

  bexpr::ExprFactory& site_factory(SiteId site) override {
    // On the sim every site of a namespace shares the namespace's
    // session factory (the single-factory semantics the figures were
    // recorded under); namespaces never read each other's.
    return namespace_factory(site);
  }

  void Compute(SiteId site, uint64_t ops, Task done) override {
    assert(site >= 0 && site < num_sites());
    Busy& s = busy_[static_cast<size_t>(site)];
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
    ResetVisits();
    std::fill(busy_.begin(), busy_.end(), Busy{});
  }

  void MutateExclusive(const Task& mutate) override { mutate(); }

  const sim::TrafficStats& traffic() const override { return traffic_; }
  double total_busy_seconds() const override {
    double total = 0.0;
    for (const Busy& s : busy_) total += s.busy_seconds;
    return total;
  }
  void AddBackendStats(obs::MetricsSnapshot* stats) const override {
    stats->counters["exec.sim.events"] += loop_.events_run();
  }

 private:
  void OnAddSites(int count) override {
    busy_.resize(busy_.size() + static_cast<size_t>(count));
  }

  struct Busy {
    double busy_until = 0.0;    ///< when its compute queue drains
    double busy_seconds = 0.0;  ///< compute time charged since Reset
  };

  sim::EventLoop loop_;
  sim::NetworkParams params_;
  sim::TrafficStats traffic_;
  std::vector<Busy> busy_;  ///< per site
};

}  // namespace parbox::exec

#endif  // PARBOX_EXEC_SIM_BACKEND_H_

// RunReport: everything a distributed evaluation run reveals about
// itself — the answer plus the measured quantities the paper's
// complexity table (Fig. 4) talks about: per-site visits, total and
// parallel computation, and communication.

#ifndef PARBOX_CORE_REPORT_H_
#define PARBOX_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace parbox::core {

struct RunReport {
  std::string algorithm;
  bool answer = false;

  /// Virtual elapsed time — the "Runtime(Sec.)" axis of Figs. 7-13.
  double makespan_seconds = 0.0;
  /// Sum of busy time across sites ("total computation", T rows of
  /// Fig. 4). makespan << total indicates parallelism.
  double total_compute_seconds = 0.0;
  /// Abstract kernel operations (element x QList-entry) across sites.
  uint64_t total_ops = 0;

  /// Bytes and messages on the network (local hand-offs excluded).
  uint64_t network_bytes = 0;
  uint64_t network_messages = 0;

  /// visits_per_site[s] = how many times site s was contacted to do
  /// fragment work. ParBoX guarantees max 1.
  std::vector<uint64_t> visits_per_site;
  uint64_t max_visits_per_site() const;
  uint64_t total_visits() const;

  /// Size of the Boolean equation system solved at composition time
  /// (number of vector entries shipped as formulas).
  uint64_t eq_system_entries = 0;

  /// Fine-grained counters: traffic broken down by message kind
  /// ("net.query.bytes", "net.triplet.messages", "net.data.bytes", ...),
  /// the backend's own counters ("exec.sim.events", "exec.tasks", ...)
  /// and interned formula nodes.
  obs::MetricsSnapshot stats;

  /// One-line summary; `Detailed` adds per-site visits.
  std::string ToString() const;
  std::string Detailed() const;
};

}  // namespace parbox::core

#endif  // PARBOX_CORE_REPORT_H_

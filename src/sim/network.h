// Site ids and the simulated network's cost model: what every layer
// names a site by, and the parameters exec::SimBackend charges
// compute and transfer time with.

#ifndef PARBOX_SIM_NETWORK_H_
#define PARBOX_SIM_NETWORK_H_

#include <cstdint>

namespace parbox::sim {

using SiteId = int32_t;

struct NetworkParams {
  double latency_seconds = 0.0001;               ///< 0.1 ms one-way LAN
  double bandwidth_bytes_per_second = 12.5e6;    ///< 100 Mbit/s
  /// Abstract kernel throughput: (element x QList-entry) ops per
  /// second. Calibrated so a ~50 MB-equivalent fragment with |QList|=8
  /// evaluates in seconds, matching the paper's scale.
  double site_ops_per_second = 2.0e7;
};

}  // namespace parbox::sim

#endif  // PARBOX_SIM_NETWORK_H_

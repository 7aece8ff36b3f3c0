// Folds a traced run's spans into per-layer self times.
//
// A span's self time is its duration minus the part of its interval
// that its child spans cover. Folding groups self times by span name
// ("query", "admission.wait", "round", "send[query]", "site.eval",
// "solve", "cache.lookup", "delta.apply", ...), and measures how much
// of each read's latency the spans under its "query" span explain.

#ifndef PARBOX_BENCH_PARBOX_TRACE_FOLD_H_
#define PARBOX_BENCH_PARBOX_TRACE_FOLD_H_

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace parbox_bench {

struct FoldedTrace {
  /// Self seconds of every span, by span name.
  std::map<std::string, std::vector<double>> self_seconds;
  /// Mean over "query" spans of the share of the span covered by the
  /// union of its descendants' intervals (0 when there are none).
  double explained_frac = 0.0;
};

FoldedTrace FoldSpans(const std::vector<parbox::obs::TraceEvent>& events);

}  // namespace parbox_bench

#endif  // PARBOX_BENCH_PARBOX_TRACE_FOLD_H_

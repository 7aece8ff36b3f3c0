#include "trace_fold.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace parbox_bench {

namespace {

using Interval = std::pair<double, double>;

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<Interval> intervals, double lo, double hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_start = 0.0, run_end = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (open && iv.first <= run_end) {
      run_end = std::max(run_end, iv.second);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = iv.first;
    run_end = iv.second;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace

FoldedTrace FoldSpans(const std::vector<parbox::obs::TraceEvent>& events) {
  std::vector<const parbox::obs::TraceEvent*> spans;
  std::unordered_map<uint64_t, size_t> index;
  for (const parbox::obs::TraceEvent& e : events) {
    if (e.dur_seconds < 0.0 || e.span_id == 0) continue;  // instants
    index.emplace(e.span_id, spans.size());
    spans.push_back(&e);
  }
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i]->parent_id);
    if (it != index.end() && it->second != i) {
      children[it->second].push_back(i);
    }
  }
  auto interval = [&](size_t i) {
    return Interval{spans[i]->ts_seconds,
                    spans[i]->ts_seconds + spans[i]->dur_seconds};
  };

  FoldedTrace folded;
  double explained_sum = 0.0;
  size_t queries = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto [lo, hi] = interval(i);
    std::vector<Interval> cover;
    for (size_t c : children[i]) cover.push_back(interval(c));
    const std::string& name = spans[i]->name;
    folded.self_seconds[name].push_back(spans[i]->dur_seconds -
                                        CoveredLength(cover, lo, hi));
    if (name != "query" || spans[i]->dur_seconds <= 0.0) continue;
    // Every descendant of the read's root span.
    std::vector<Interval> below;
    std::vector<size_t> stack = children[i];
    while (!stack.empty()) {
      const size_t d = stack.back();
      stack.pop_back();
      below.push_back(interval(d));
      stack.insert(stack.end(), children[d].begin(), children[d].end());
    }
    explained_sum += CoveredLength(std::move(below), lo, hi) /
                     spans[i]->dur_seconds;
    ++queries;
  }
  if (queries > 0) folded.explained_frac = explained_sum / queries;
  return folded;
}

}  // namespace parbox_bench

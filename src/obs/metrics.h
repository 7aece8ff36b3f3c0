// MetricsRegistry: one process-wide registry of named counters,
// gauges, and histograms behind a uniform interface — the only metrics
// vocabulary above the backends' wire meter (sim::TrafficStats, the
// paper's traffic cost, which SnapshotMetrics exports as gauges).
//
//   * Names are interned once (at service construction) into dense
//     MetricIds; the hot path is an array increment into the calling
//     thread's shard (obs/shard.h), so worker threads of the
//     thread-pool backend record without locks or atomics — the same
//     single-writer pattern as the backend's per-executor traffic
//     meters, with the same quiescent-merge read discipline.
//   * Histograms (Add, Percentile, Summary, Merge) back every latency
//     and width distribution the service reports and the benches time.
//   * Namespace prefixes are plain name prefixes ("d3.service.rounds"),
//     matching exec::BackendHost's traffic-tag prefixes, so
//     per-document meters on a shared registry stay exactly separable.
//   * Snapshot() materializes everything into a sorted, JSON-able
//     MetricsSnapshot (StatsSink intervals, parboxq --statz, bench
//     JSON); backends add their own counters into the same type
//     (ExecBackend::AddBackendStats, core::RunReport::stats).
//
// Concurrency: Add/Increment/Observe are safe from any execution
// context and never contend after a thread's first touch. Merged reads
// (CounterValue, HistogramValue, Snapshot) require quiescence — call
// after Drain, exactly like backend meters. LocalCounterValue reads
// only the calling thread's shard and is therefore safe mid-run for
// metrics that thread itself recorded (the StatsSink's periodic lines
// run in coordinator context and read coordinator-written counters).

#ifndef PARBOX_OBS_METRICS_H_
#define PARBOX_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/shard.h"

namespace parbox::obs {

/// A sample of real-valued observations: exact up to kExactSamples
/// observations (nearest-rank percentiles on a lazily sorted copy),
/// then a bounded reservoir.
///
/// Long serving and chaos runs observe millions of latencies; keeping
/// every sample grows without limit. Beyond the threshold, new
/// observations replace uniformly drawn reservoir slots (Vitter's
/// Algorithm R on a deterministic xorshift stream, so runs replay
/// identically) — percentiles become estimates over a fixed
/// kExactSamples-size sample. count/sum/mean/min/max are running
/// accumulators over every observation in both regimes, so they are
/// exact and never depend on whether a percentile was read first.
class Histogram {
 public:
  /// Exact samples retained before reservoir sampling kicks in.
  static constexpr size_t kExactSamples = 4096;

  void Add(double value) {
    ++count_;
    sum_ += value;
    if (count_ == 1) {
      min_ = max_ = value;
    } else {
      if (value < min_) min_ = value;
      if (value > max_) max_ = value;
    }
    if (values_.size() < kExactSamples) {
      values_.push_back(value);
      sorted_ = false;
      return;
    }
    // Algorithm R: slot j uniform over every observation so far; the
    // new value enters only if j lands inside the reservoir, keeping
    // each observation retained with probability kExactSamples/count.
    const uint64_t j = NextRandom() % count_;
    if (j < kExactSamples) {
      values_[j] = value;
      sorted_ = false;
    }
  }

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  /// Smallest / largest observation; 0 on an empty sample.
  double min() const { return min_; }
  double max() const { return max_; }

  /// Samples currently retained (== count() in the exact regime,
  /// kExactSamples once the reservoir engaged).
  size_t retained() const { return values_.size(); }
  /// True while every observation is still retained (percentiles are
  /// exact, not reservoir estimates).
  bool exact() const { return count_ == values_.size(); }

  /// Nearest-rank percentile, `pct` in [0, 100]. 0 on an empty sample.
  /// Exact below kExactSamples observations, a reservoir estimate
  /// beyond.
  double Percentile(double pct) const;

  /// Pool `other`'s observations into this sample: the scalar moments
  /// merge exactly, and the donor's retained samples feed the
  /// reservoir (plain concatenation while the union fits the exact
  /// regime).
  void Merge(const Histogram& other);

  /// "n=.. mean=.. p50=.. p95=.. p99=.. max=.." with `unit` appended
  /// and values multiplied by `scale` (1e3 prints seconds as ms).
  std::string Summary(const std::string& unit = "",
                      double scale = 1.0) const;

 private:
  void EnsureSorted() const;
  /// xorshift64 from a fixed seed: deterministic replacement slots —
  /// identical runs keep identical reservoirs (the differential
  /// suites depend on reports being reproducible).
  uint64_t NextRandom() {
    uint64_t x = rng_state_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rng_state_ = x;
    return x;
  }

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
  /// Exact moments over EVERY observation (not just retained ones).
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;
};

/// One histogram's summary statistics inside a snapshot.
struct HistogramSummary {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// A point-in-time materialization of a registry (sorted by name), or
/// a backend's counters (ExecBackend::AddBackendStats).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// The named counter or gauge; 0 when absent.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;

  std::string ToJson() const;
  /// Multi-line "name = value" dump, sorted by name.
  std::string ToString() const;
};

class MetricsRegistry {
 public:
  using MetricId = int32_t;
  enum class Kind { kCounter, kGauge, kHistogram };

  /// Intern `name` as a metric of `kind`, returning its dense id
  /// (stable for the registry's lifetime, across Reset). Re-interning
  /// an existing name returns the same id; the kind must match.
  MetricId Intern(std::string_view name, Kind kind);

  // ---- Hot path (any execution context, shard-local) ----

  void Add(MetricId id, uint64_t delta);
  void Increment(MetricId id) { Add(id, 1); }
  void Observe(MetricId id, double value);

  /// Gauges are last-write-wins and rare (snapshot-time state like
  /// cache size); they live under the registry mutex, not in shards.
  void Set(MetricId id, double value);

  // ---- String-keyed convenience (intern + record) ----

  void SetGauge(std::string_view name, double value) {
    Set(Intern(name, Kind::kGauge), value);
  }

  // ---- Merged reads (quiescent only, except LocalCounterValue) ----

  uint64_t CounterValue(MetricId id) const;
  uint64_t CounterValue(std::string_view name) const;
  Histogram HistogramValue(MetricId id) const;
  Histogram HistogramValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  /// The calling thread's own shard's count only — exact for metrics
  /// this thread recorded, and safe while other threads are running.
  uint64_t LocalCounterValue(MetricId id) const;

  MetricsSnapshot Snapshot() const;
  std::string ToString() const { return Snapshot().ToString(); }

  /// Forget every recorded value. Names and ids persist, so interned
  /// handles stay valid. Requires quiescence.
  void Reset();

 private:
  struct Shard {
    std::vector<uint64_t> counters;    // by MetricId
    std::vector<Histogram> histograms; // by MetricId
  };

  /// -1 when `name` is not interned (const read paths).
  MetricId FindId(std::string_view name) const;

  mutable std::mutex mu_;  // names, kinds, gauges
  std::vector<std::string> names_;  // registry, index = MetricId
  std::vector<Kind> kinds_;
  std::map<std::string, MetricId, std::less<>> index_;
  std::vector<double> gauges_;  // by MetricId (kGauge slots)
  mutable detail::ShardSet<Shard> shards_;
};

}  // namespace parbox::obs

#endif  // PARBOX_OBS_METRICS_H_

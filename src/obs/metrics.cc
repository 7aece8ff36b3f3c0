#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace parbox::obs {

// ---- Histogram ---------------------------------------------------------

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  // Run the donor's retained samples through the reservoir: they
  // append while it has room (so a union that fits stays exact), and
  // each sample beyond that stands for other.count/other.retained
  // observations, so draw its slot over that many positions — both
  // sides keep proportional representation.
  const uint64_t represents =
      other.values_.empty()
          ? 1
          : std::max<uint64_t>(other.count_ / other.values_.size(), 1);
  uint64_t seen = count_;
  for (double v : other.values_) {
    seen += represents;
    if (values_.size() < kExactSamples) {
      values_.push_back(v);
      sorted_ = false;
      continue;
    }
    const uint64_t j = NextRandom() % seen;
    if (j < kExactSamples) {
      values_[j] = v;
      sorted_ = false;
    }
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::EnsureSorted() const {
  if (sorted_) return;
  std::sort(values_.begin(), values_.end());
  sorted_ = true;
}

double Histogram::Percentile(double pct) const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  pct = std::clamp(pct, 0.0, 100.0);
  // Nearest rank: the smallest value with at least pct% of the sample
  // at or below it.
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values_.size())));
  if (rank == 0) rank = 1;
  return values_[rank - 1];
}

std::string Histogram::Summary(const std::string& unit,
                               double scale) const {
  std::ostringstream out;
  out << "n=" << count();
  auto put = [&](const char* name, double v) {
    out << " " << name << "=" << v * scale << unit;
  };
  put("mean", mean());
  put("p50", Percentile(50));
  put("p95", Percentile(95));
  put("p99", Percentile(99));
  put("max", max());
  return out.str();
}

// ---- MetricsSnapshot ---------------------------------------------------

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::GaugeValue(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

namespace {

void AppendJsonKey(std::ostringstream* out, const std::string& name,
                   bool* first) {
  if (!*first) *out << ",\n";
  *first = false;
  *out << "    \"" << name << "\": ";
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\n  \"counters\": {\n";
  bool first = true;
  for (const auto& [name, value] : counters) {
    AppendJsonKey(&out, name, &first);
    out << value;
  }
  out << "\n  },\n  \"gauges\": {\n";
  first = true;
  for (const auto& [name, value] : gauges) {
    AppendJsonKey(&out, name, &first);
    out << value;
  }
  out << "\n  },\n  \"histograms\": {\n";
  first = true;
  for (const auto& [name, h] : histograms) {
    AppendJsonKey(&out, name, &first);
    out << "{\"count\": " << h.count << ", \"mean\": " << h.mean()
        << ", \"p50\": " << h.p50 << ", \"p95\": " << h.p95
        << ", \"p99\": " << h.p99 << ", \"min\": " << h.min
        << ", \"max\": " << h.max << "}";
  }
  out << "\n  }\n}\n";
  return out.str();
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    out << name << " = " << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    out << name << " = n=" << h.count << " mean=" << h.mean()
        << " p50=" << h.p50 << " p95=" << h.p95 << " p99=" << h.p99
        << " max=" << h.max << "\n";
  }
  return out.str();
}

// ---- MetricsRegistry ---------------------------------------------------

MetricsRegistry::MetricId MetricsRegistry::Intern(std::string_view name,
                                                  Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = index_.find(name); it != index_.end()) {
    assert(kinds_[static_cast<size_t>(it->second)] == kind &&
           "metric re-interned with a different kind");
    return it->second;
  }
  const MetricId id = static_cast<MetricId>(names_.size());
  names_.emplace_back(name);
  kinds_.push_back(kind);
  gauges_.push_back(0.0);
  index_.emplace(names_.back(), id);
  return id;
}

MetricsRegistry::MetricId MetricsRegistry::FindId(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

void MetricsRegistry::Add(MetricId id, uint64_t delta) {
  Shard& shard = shards_.Local();
  const size_t slot = static_cast<size_t>(id);
  if (shard.counters.size() <= slot) shard.counters.resize(slot + 1, 0);
  shard.counters[slot] += delta;
}

void MetricsRegistry::Observe(MetricId id, double value) {
  Shard& shard = shards_.Local();
  const size_t slot = static_cast<size_t>(id);
  if (shard.histograms.size() <= slot) shard.histograms.resize(slot + 1);
  shard.histograms[slot].Add(value);
}

void MetricsRegistry::Set(MetricId id, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[static_cast<size_t>(id)] = value;
}

uint64_t MetricsRegistry::CounterValue(MetricId id) const {
  uint64_t total = 0;
  const size_t slot = static_cast<size_t>(id);
  shards_.ForEach([&](const Shard& shard) {
    if (slot < shard.counters.size()) total += shard.counters[slot];
  });
  return total;
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const MetricId id = FindId(name);
  return id < 0 ? 0 : CounterValue(id);
}

Histogram MetricsRegistry::HistogramValue(MetricId id) const {
  Histogram merged;
  const size_t slot = static_cast<size_t>(id);
  shards_.ForEach([&](const Shard& shard) {
    if (slot < shard.histograms.size()) {
      merged.Merge(shard.histograms[slot]);
    }
  });
  return merged;
}

Histogram MetricsRegistry::HistogramValue(std::string_view name) const {
  const MetricId id = FindId(name);
  return id < 0 ? Histogram{} : HistogramValue(id);
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  const MetricId id = FindId(name);
  if (id < 0) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[static_cast<size_t>(id)];
}

uint64_t MetricsRegistry::LocalCounterValue(MetricId id) const {
  const Shard& shard = shards_.Local();
  const size_t slot = static_cast<size_t>(id);
  return slot < shard.counters.size() ? shard.counters[slot] : 0;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // Names/kinds/gauges first (under the mutex), then the quiescent
  // shard merge.
  std::vector<std::string> names;
  std::vector<Kind> kinds;
  std::vector<double> gauges;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names = names_;
    kinds = kinds_;
    gauges = gauges_;
  }
  MetricsSnapshot snap;
  for (size_t i = 0; i < names.size(); ++i) {
    const MetricId id = static_cast<MetricId>(i);
    switch (kinds[i]) {
      case Kind::kCounter:
        snap.counters[names[i]] = CounterValue(id);
        break;
      case Kind::kGauge:
        snap.gauges[names[i]] = gauges[i];
        break;
      case Kind::kHistogram: {
        const Histogram h = HistogramValue(id);
        HistogramSummary s;
        s.count = h.count();
        s.sum = h.sum();
        s.min = h.min();
        s.max = h.max();
        s.p50 = h.Percentile(50);
        s.p95 = h.Percentile(95);
        s.p99 = h.Percentile(99);
        snap.histograms[names[i]] = s;
        break;
      }
    }
  }
  return snap;
}

void MetricsRegistry::Reset() {
  shards_.Clear();
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(gauges_.begin(), gauges_.end(), 0.0);
}

}  // namespace parbox::obs

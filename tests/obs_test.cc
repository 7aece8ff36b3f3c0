// Observability suite: trace spans, the metrics registry, and the
// stats sink — unit semantics plus the serving-stack integration
// contracts:
//
//   * determinism — a seeded sim serving run's span log is
//     byte-identical across repeats (golden property, not a golden
//     file: two fresh runs must agree exactly);
//   * backend equivalence — the span *structure* (names, parenting,
//     per-site counts) is the same on the sim and the thread pool;
//     only timestamps differ;
//   * meter equivalence — the service-recorded wire counters match the
//     substrate's own TrafficStats, tag by tag, on both backends;
//   * a single traced query produces the full causal tree: query ->
//     admission.wait -> round -> per-site send[query] -> site.eval (the
//     kernel walk) and site.reply (queue + reply encode) -> solve, with
//     non-zero durations;
//   * every coordinator solve of a session run (each lazy depth step,
//     each selection's first pass) is one span named solve.
//
// Runs under `ctest -L backends` (and re-runs whole with
// PARBOX_BACKEND=threads); tests that assert virtual-clock properties
// construct an explicit "sim" backend, so nothing here skips.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/path_selection.h"
#include "core/selection.h"
#include "core/session.h"
#include "fragment/strategies.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "testutil.h"
#include "xmark/portfolio.h"
#include "xpath/normalize.h"

namespace parbox {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::StatsSink;
using obs::StatsSinkOptions;
using obs::TraceEvent;
using obs::Tracer;
using service::QueryService;
using service::ServiceOptions;
using service::ServiceReport;

xpath::NormQuery Compile(const char* text) {
  auto q = xpath::CompileQuery(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

/// Reference nearest-rank percentile over a full sample: sort, then
/// take rank ceil(pct/100 * n) (at least 1).
double NearestRank(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

/// Sum in insertion order, as the histogram's accumulator adds.
double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

// ---- MetricsRegistry ---------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  const auto c = registry.Intern("requests", MetricsRegistry::Kind::kCounter);
  const auto g = registry.Intern("queue_depth", MetricsRegistry::Kind::kGauge);
  const auto h =
      registry.Intern("latency", MetricsRegistry::Kind::kHistogram);

  registry.Add(c, 3);
  registry.Increment(c);
  registry.Set(g, 17.5);
  registry.Observe(h, 0.25);
  registry.Observe(h, 0.75);

  EXPECT_EQ(registry.CounterValue(c), 4u);
  EXPECT_EQ(registry.CounterValue("requests"), 4u);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("queue_depth"), 17.5);
  const obs::Histogram merged = registry.HistogramValue(h);
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_DOUBLE_EQ(merged.sum(), 1.0);

  // Re-interning an existing name returns the same id.
  EXPECT_EQ(registry.Intern("requests", MetricsRegistry::Kind::kCounter), c);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("requests"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("queue_depth"), 17.5);
  EXPECT_EQ(snap.histograms.at("latency").count, 2u);
  EXPECT_EQ(snap.CounterValue("requests"), 4u);
  EXPECT_DOUBLE_EQ(snap.GaugeValue("queue_depth"), 17.5);
  EXPECT_EQ(snap.CounterValue("absent"), 0u);
  EXPECT_EQ(snap.GaugeValue("absent"), 0.0);

  // Reset forgets values; interned ids stay valid.
  registry.Reset();
  EXPECT_EQ(registry.CounterValue(c), 0u);
  registry.Increment(c);
  EXPECT_EQ(registry.CounterValue("requests"), 1u);
}

TEST(MetricsRegistryTest, LocalCounterValueSeesOwnWrites) {
  MetricsRegistry registry;
  const auto c = registry.Intern("n", MetricsRegistry::Kind::kCounter);
  registry.Add(c, 7);
  EXPECT_EQ(registry.LocalCounterValue(c), 7u);
}

TEST(MetricsRegistryTest, HistogramPercentiles) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.count(), 100u);
}

// Below kExactSamples the histogram keeps every observation: its
// percentiles are the exact nearest-rank ones.
TEST(MetricsRegistryTest, HistogramMatchesNearestRank) {
  obs::Histogram h;
  std::vector<double> values;
  Rng rng(7);
  for (int i = 0; i < 257; ++i) {
    const double v = static_cast<double>(rng.Next64() % 10000) / 100.0;
    h.Add(v);
    values.push_back(v);
  }
  for (double pct : {0.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(pct), NearestRank(values, pct)) << pct;
  }
  const double mean = Sum(values) / static_cast<double>(values.size());
  const double max = *std::max_element(values.begin(), values.end());
  EXPECT_EQ(h.mean(), mean);
  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(h.max(), max);
  std::ostringstream summary;
  summary << "n=257 mean=" << mean * 1e3
          << "ms p50=" << NearestRank(values, 50) * 1e3
          << "ms p95=" << NearestRank(values, 95) * 1e3
          << "ms p99=" << NearestRank(values, 99) * 1e3
          << "ms max=" << max * 1e3 << "ms";
  EXPECT_EQ(h.Summary("ms", 1e3), summary.str());
}

// The moments are accumulators: reading a percentile (which sorts the
// retained samples in place) must not change sum() or mean() by a
// single bit.
TEST(MetricsRegistryTest, HistogramMomentsIgnorePercentileReads) {
  size_t differing = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    obs::Histogram read_first, untouched;
    Rng rng(seed);
    for (int i = 0; i < 257; ++i) {
      const double v = static_cast<double>(rng.Next64() % 1000000) / 997.0;
      read_first.Add(v);
      untouched.Add(v);
    }
    (void)read_first.Percentile(50);
    if (std::bit_cast<uint64_t>(read_first.sum()) !=
            std::bit_cast<uint64_t>(untouched.sum()) ||
        std::bit_cast<uint64_t>(read_first.mean()) !=
            std::bit_cast<uint64_t>(untouched.mean())) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u);
}

// Beyond kExactSamples observations the histogram switches to a
// fixed-size reservoir: memory stays bounded, scalar moments stay
// exact, and percentiles become estimates over the retained sample.
TEST(MetricsRegistryTest, HistogramReservoirBoundsMemory) {
  obs::Histogram h;
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    // 1..100000 in a shuffled-ish deterministic order.
    h.Add(static_cast<double>((i * 48271) % n + 1));
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.retained(), obs::Histogram::kExactSamples);
  EXPECT_FALSE(h.exact());
  // Scalar moments never degrade to estimates.
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(n));
  EXPECT_DOUBLE_EQ(h.mean(), (static_cast<double>(n) + 1.0) / 2.0);
  // Percentiles are estimates over 4096 uniform draws; for a uniform
  // population the relative error stays small.
  EXPECT_NEAR(h.Percentile(50), static_cast<double>(n) / 2.0,
              static_cast<double>(n) * 0.05);
  EXPECT_NEAR(h.Percentile(99), static_cast<double>(n) * 0.99,
              static_cast<double>(n) * 0.05);
}

TEST(MetricsRegistryTest, HistogramReservoirIsDeterministic) {
  // Fixed-seed replacement stream: identical runs keep identical
  // reservoirs (differential suites compare report strings).
  obs::Histogram a, b;
  for (size_t i = 0; i < 20000; ++i) {
    const double v = static_cast<double>((i * 92717) % 1000);
    a.Add(v);
    b.Add(v);
  }
  EXPECT_EQ(a.Summary("ms", 1e3), b.Summary("ms", 1e3));
}

TEST(MetricsRegistryTest, HistogramMergeStaysExactWhenSmall) {
  obs::Histogram a, b;
  std::vector<double> values;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(rng.Next64() % 1000);
    (i % 2 == 0 ? a : b).Add(v);
    values.push_back(v);
  }
  // The union fits the exact regime, so the merged sample is the
  // whole single stream.
  obs::Histogram merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_TRUE(merged.exact());
  EXPECT_EQ(merged.count(), 100u);
  EXPECT_DOUBLE_EQ(merged.mean(), Sum(values) / 100.0);
  EXPECT_EQ(merged.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(merged.max(), *std::max_element(values.begin(), values.end()));
  for (double pct : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.Percentile(pct), NearestRank(values, pct)) << pct;
  }
}

TEST(MetricsRegistryTest, HistogramMergeIntoReservoirKeepsMoments) {
  obs::Histogram big, small;
  const size_t n = 50000;
  for (size_t i = 0; i < n; ++i) {
    big.Add(static_cast<double>(i % 1000));
  }
  for (int i = 0; i < 10; ++i) small.Add(5000.0 + i);
  const double big_sum = big.sum();
  big.Merge(small);
  EXPECT_EQ(big.count(), n + 10);
  EXPECT_EQ(big.retained(), obs::Histogram::kExactSamples);
  EXPECT_DOUBLE_EQ(big.max(), 5009.0);
  EXPECT_DOUBLE_EQ(big.min(), 0.0);
  EXPECT_DOUBLE_EQ(big.sum(), big_sum + small.sum());

  // The other direction: exact receiver, reservoir donor.
  obs::Histogram fresh;
  fresh.Add(-7.0);
  fresh.Merge(big);
  EXPECT_EQ(fresh.count(), n + 11);
  EXPECT_DOUBLE_EQ(fresh.min(), -7.0);
  EXPECT_DOUBLE_EQ(fresh.max(), 5009.0);
  EXPECT_EQ(fresh.retained(), obs::Histogram::kExactSamples);
}

// ---- Tracer ------------------------------------------------------------

TEST(TracerTest, RecordCollectBreakdown) {
  Tracer tracer;
  const uint64_t trace = tracer.MintTraceId();
  const uint64_t root = tracer.MintSpanId();

  TraceEvent e;
  e.name = "query";
  e.trace_id = trace;
  e.span_id = root;
  e.ts_seconds = 0.0;
  e.dur_seconds = 2.0;
  tracer.Record(e);

  TraceEvent child;
  child.name = "solve";
  child.trace_id = trace;
  child.span_id = tracer.MintSpanId();
  child.parent_id = root;
  child.ts_seconds = 0.5;
  child.dur_seconds = 1.0;
  tracer.Record(child);

  TraceEvent instant;
  instant.name = "cache.hit";
  instant.trace_id = trace;
  instant.parent_id = root;
  instant.ts_seconds = 1.0;
  tracer.Record(instant);

  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::string breakdown = tracer.Breakdown(trace);
  EXPECT_NE(breakdown.find("query"), std::string::npos);
  EXPECT_NE(breakdown.find("solve"), std::string::npos);
  EXPECT_NE(breakdown.find("cache.hit"), std::string::npos);
  // The child renders beneath (after) its parent.
  EXPECT_LT(breakdown.find("query"), breakdown.find("solve"));

  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant

  tracer.Reset();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, DisabledAndCapped) {
  Tracer::Options options;
  options.max_events = 2;
  Tracer tracer(options);
  for (int i = 0; i < 5; ++i) {
    TraceEvent e;
    e.name = "x";
    e.trace_id = 1;
    tracer.Record(std::move(e));
  }
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(TracerTest, ScopedContextRestores) {
  EXPECT_FALSE(obs::CurrentTraceContext().active());
  {
    obs::ScopedTraceContext scope({.trace_id = 9, .span_id = 4});
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 9u);
    {
      obs::ScopedTraceContext inner({.trace_id = 2, .span_id = 1});
      EXPECT_EQ(obs::CurrentTraceContext().trace_id, 2u);
    }
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 9u);
  }
  EXPECT_FALSE(obs::CurrentTraceContext().active());
}

// ---- StatsSink ---------------------------------------------------------

TEST(StatsSinkTest, DueAtOncePerInterval) {
  StatsSinkOptions due_options;
  due_options.interval_seconds = 1.0;
  StatsSink sink(due_options);
  EXPECT_FALSE(sink.DueAt(10.0));  // first call initializes
  EXPECT_FALSE(sink.DueAt(10.5));
  EXPECT_TRUE(sink.DueAt(11.0));
  EXPECT_FALSE(sink.DueAt(11.2));  // already ticked this interval
  EXPECT_TRUE(sink.DueAt(12.5));
}

TEST(StatsSinkTest, LinesRingAndSlowQueries) {
  std::vector<std::string> streamed;
  StatsSinkOptions options;
  options.max_lines = 2;
  options.write = [&streamed](const std::string& line) {
    streamed.push_back(line);
  };
  StatsSink sink(options);
  sink.Line("one");
  sink.Line("two");
  sink.Line("three");
  ASSERT_EQ(sink.lines().size(), 2u);  // ring dropped "one"
  EXPECT_EQ(sink.lines().front(), "two");
  EXPECT_EQ(streamed.size(), 3u);  // streaming saw everything

  sink.SlowQuery("doc", 12, 34, 0.25, 5.0);
  EXPECT_EQ(sink.slow_queries(), 1u);
  const std::string& slow = sink.lines().back();
  EXPECT_NE(slow.find("[doc]"), std::string::npos);
  EXPECT_NE(slow.find("q=12"), std::string::npos);
  EXPECT_NE(slow.find("trace=34"), std::string::npos);
  sink.SlowQuery("doc", 13, 0, 0.25, 5.0);
  EXPECT_NE(sink.lines().back().find("trace=-"), std::string::npos);
}

// ---- Serving integration ----------------------------------------------

struct Scenario {
  frag::FragmentSet set;
  frag::SourceTree st;
};

Scenario MakePortfolio() {
  auto set = xmark::BuildPortfolioFragments();
  EXPECT_TRUE(set.ok());
  auto st = frag::SourceTree::Create(*set,
                                     frag::AssignOneSitePerFragment(*set));
  EXPECT_TRUE(st.ok());
  return Scenario{std::move(*set), std::move(*st)};
}

/// Serve a small mixed workload (one repeat => one cache hit) against
/// a fresh service over `*scenario`; the service outlives the call so
/// tests can inspect outcomes.
std::unique_ptr<QueryService> ServeMixed(
    Scenario* scenario, const std::string& backend, Tracer* tracer,
    std::vector<service::QueryOutcome>* outcomes = nullptr) {
  ServiceOptions options;
  options.backend = backend;
  options.tracer = tracer;
  auto svc = std::make_unique<QueryService>(&scenario->set, &scenario->st,
                                            options);
  auto record = [outcomes] {
    return outcomes != nullptr ? testutil::RecordInto(outcomes)
                               : QueryService::CompletionFn();
  };
  EXPECT_TRUE(svc->Submit(Compile(xmark::kYhooQuery), 0.0, record()).ok());
  EXPECT_TRUE(
      svc->Submit(Compile(xmark::kGoogSellQuery), 0.0, record()).ok());
  svc->Run();
  EXPECT_TRUE(
      svc->Submit(Compile(xmark::kYhooQuery), 1.0, record()).ok());  // hit
  svc->Run();
  EXPECT_TRUE(svc->status().ok()) << svc->status().ToString();
  return svc;
}

/// The structural skeleton of a span log: (name, category,
/// has-duration) multiset — identical across backends; timestamps are
/// not compared.
std::multiset<std::string> Skeleton(const std::vector<TraceEvent>& events) {
  std::multiset<std::string> shape;
  for (const TraceEvent& e : events) {
    shape.insert(std::string(e.name) + "|" + e.category + "|" +
                 (e.dur_seconds < 0 ? "i" : "X"));
  }
  return shape;
}

TEST(TracingIntegrationTest, SingleQueryProducesFullSpanTree) {
  for (const char* backend : {"sim", "threads:2", "proc:2"}) {
    SCOPED_TRACE(backend);
    Scenario scenario = MakePortfolio();
    ServiceOptions options;
    options.backend = backend;
    Tracer tracer;
    options.tracer = &tracer;
    QueryService svc(&scenario.set, &scenario.st, options);
    std::vector<service::QueryOutcome> outcomes;
    ASSERT_TRUE(svc.Submit(Compile(xmark::kYhooQuery), 0.0,
                           testutil::RecordInto(&outcomes))
                    .ok());
    svc.Run();
    ASSERT_TRUE(svc.status().ok()) << svc.status().ToString();

    ASSERT_EQ(outcomes.size(), 1u);
    const uint64_t trace_id = outcomes[0].trace_id;
    ASSERT_NE(trace_id, 0u);

    const std::vector<TraceEvent> events = tracer.Collect();
    std::map<std::string, const TraceEvent*> by_name;
    std::map<uint64_t, const TraceEvent*> by_span;
    std::vector<const TraceEvent*> site_evals;
    size_t site_replies = 0;
    for (const TraceEvent& e : events) {
      ASSERT_EQ(e.trace_id, trace_id) << e.name;
      by_name.emplace(e.name, &e);
      if (e.span_id != 0) by_span.emplace(e.span_id, &e);
      if (e.name == "site.eval") site_evals.push_back(&e);
      if (e.name == "site.reply") ++site_replies;
    }

    // The causal chain: query -> admission.wait and query -> round ->
    // ... -> solve, with non-zero durations on every link.
    for (const char* name : {"query", "admission.wait", "round", "solve"}) {
      ASSERT_TRUE(by_name.count(name)) << name;
      EXPECT_GT(by_name.at(name)->dur_seconds, 0.0) << name;
    }
    // One evaluation per site (ParBoX's bound), each parented under
    // the round through its query send: the kernel walk as its own
    // span, carrying its ops, then the reply compute.
    const size_t sites = static_cast<size_t>(scenario.st.num_sites());
    EXPECT_EQ(site_evals.size(), sites);
    EXPECT_EQ(site_replies, sites);
    for (const TraceEvent* eval : site_evals) {
      EXPECT_GE(eval->dur_seconds, 0.0);
      ASSERT_TRUE(by_span.count(eval->parent_id));
      const TraceEvent* send = by_span.at(eval->parent_id);
      EXPECT_EQ(send->name, "send[query]");
      EXPECT_EQ(send->parent_id, by_name.at("round")->span_id);
      ASSERT_EQ(eval->args.size(), 1u);
      EXPECT_EQ(eval->args[0].first, "ops");
      EXPECT_GT(std::stoull(eval->args[0].second), 0u);
    }
    EXPECT_EQ(by_name.at("admission.wait")->parent_id,
              by_name.at("query")->span_id);
    EXPECT_EQ(by_name.at("round")->parent_id,
              by_name.at("query")->span_id);
    // solve is reachable from the round by walking parents.
    const TraceEvent* cursor = by_name.at("solve");
    bool reached_round = false;
    while (cursor != nullptr && cursor->parent_id != 0) {
      auto it = by_span.find(cursor->parent_id);
      cursor = it == by_span.end() ? nullptr : it->second;
      if (cursor == by_name.at("round")) {
        reached_round = true;
        break;
      }
    }
    EXPECT_TRUE(reached_round);
  }
}

TEST(TracingIntegrationTest, SimTraceIsDeterministic) {
  Scenario s1 = MakePortfolio(), s2 = MakePortfolio();
  Tracer a, b;
  ServeMixed(&s1, "sim", &a);
  ServeMixed(&s2, "sim", &b);
  EXPECT_EQ(a.ToChromeJson(), b.ToChromeJson());
  EXPECT_EQ(a.Breakdown(1), b.Breakdown(1));
  EXPECT_GT(a.event_count(), 0u);
}

TEST(TracingIntegrationTest, SpanStructureMatchesAcrossBackends) {
  // Three-way: the proc backend carries trace ids across process
  // boundaries as wire bytes, so its span log must have the same
  // skeleton as the in-process backends'.
  Scenario s1 = MakePortfolio(), s2 = MakePortfolio(), s3 = MakePortfolio();
  Tracer sim_tracer, threads_tracer, proc_tracer;
  ServeMixed(&s1, "sim", &sim_tracer);
  ServeMixed(&s2, "threads:2", &threads_tracer);
  ServeMixed(&s3, "proc:2", &proc_tracer);
  const auto sim_shape = Skeleton(sim_tracer.Collect());
  const auto threads_shape = Skeleton(threads_tracer.Collect());
  const auto proc_shape = Skeleton(proc_tracer.Collect());
  EXPECT_EQ(sim_shape, threads_shape);
  EXPECT_EQ(sim_shape, proc_shape);
  EXPECT_GT(sim_shape.size(), 0u);
}

TEST(TracingIntegrationTest, CacheHitEmitsInstantNotRound) {
  Tracer tracer;
  Scenario scenario = MakePortfolio();
  ServiceOptions options;
  options.backend = "sim";
  options.tracer = &tracer;
  QueryService svc(&scenario.set, &scenario.st, options);
  ASSERT_TRUE(svc.Submit(Compile(xmark::kYhooQuery), 0.0).ok());
  svc.Run();
  tracer.Reset();
  ASSERT_TRUE(svc.Submit(Compile(xmark::kYhooQuery), 1.0).ok());
  svc.Run();
  bool saw_hit = false;
  for (const TraceEvent& e : tracer.Collect()) {
    EXPECT_NE(e.name, "round");  // no re-evaluation
    if (e.name == "cache.hit") saw_hit = true;
  }
  EXPECT_TRUE(saw_hit);
}

/// Spans named `name` in `tracer`'s log.
size_t CountSpans(const Tracer& tracer, std::string_view name) {
  size_t count = 0;
  for (const TraceEvent& e : tracer.Collect()) count += e.name == name;
  return count;
}

TEST(TracingIntegrationTest, EveryCoordinatorSolveIsTracedAsSolve) {
  // The portfolio's fragments reach depth 2, so lazy takes two depth
  // steps when the answer stays open until the last one; each
  // selection solves once, after its first pass.
  Scenario scenario = MakePortfolio();
  ASSERT_EQ(scenario.st.max_depth(), 2);
  Tracer tracer;
  auto session = core::Session::Create(&scenario.set, &scenario.st,
                                       {.backend = "sim", .tracer = &tracer});
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto nowhere = session->Prepare("[//zzz]");
  ASSERT_TRUE(nowhere.ok());
  auto lazy = session->Execute(*nowhere, {.evaluator = "lazy"});
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_FALSE(lazy->answer);
  EXPECT_EQ(CountSpans(tracer, "solve"), 2u);

  tracer.Reset();
  auto q = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(core::RunSelectionParBoX(*session, *q).ok());
  EXPECT_EQ(CountSpans(tracer, "solve"), 1u);

  tracer.Reset();
  auto path = xpath::CompileSelection("//stock");
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE(core::RunPathSelection(*session, *path).ok());
  EXPECT_EQ(CountSpans(tracer, "solve"), 1u);
}

TEST(TracingIntegrationTest, SelectionSecondPassIsTracedLikeARound) {
  // Each selection's second pass runs its site work inline in the
  // delivery, as a round's walk does: a site.eval span per site.reply
  // compute, and no unnamed compute.
  Scenario scenario = MakePortfolio();
  Tracer tracer;
  auto session = core::Session::Create(&scenario.set, &scenario.st,
                                       {.backend = "sim", .tracer = &tracer});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto q = session->Prepare(xmark::kYhooQuery);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(core::RunSelectionParBoX(*session, *q).ok());
  EXPECT_EQ(CountSpans(tracer, "compute"), 0u);
  EXPECT_EQ(CountSpans(tracer, "site.eval"),
            CountSpans(tracer, "site.reply"));

  tracer.Reset();
  auto path = xpath::CompileSelection("//stock");
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE(core::RunPathSelection(*session, *path).ok());
  EXPECT_EQ(CountSpans(tracer, "compute"), 0u);
  EXPECT_EQ(CountSpans(tracer, "site.eval"),
            CountSpans(tracer, "site.reply"));
}

TEST(MetricsIntegrationTest, RegistryMatchesTrafficStats) {
  // One backend counter per substrate that must export as a gauge.
  const std::map<std::string, std::string> kBackendGauge = {
      {"sim", "exec.sim.events"},
      {"threads:2", "exec.workers"},
      {"proc:2", "exec.proc.frames"}};
  for (const auto& [backend, backend_gauge] : kBackendGauge) {
    SCOPED_TRACE(backend);
    Scenario scenario = MakePortfolio();
    ServiceOptions options;
    options.backend = backend;
    QueryService svc(&scenario.set, &scenario.st, options);
    ASSERT_TRUE(svc.Submit(Compile(xmark::kYhooQuery), 0.0).ok());
    ASSERT_TRUE(svc.Submit(Compile(xmark::kGoogSellQuery), 0.0).ok());
    svc.Run();
    ASSERT_TRUE(svc.status().ok()) << svc.status().ToString();

    // The service-recorded wire counters must equal the substrate's
    // own meters, which SnapshotMetrics injects as "exec." gauges.
    MetricsSnapshot snap = svc.SnapshotMetrics();
    for (const char* tag : {"query", "triplet"}) {
      const std::string counter = std::string("net.") + tag + ".bytes";
      const std::string gauge = "exec." + counter;
      ASSERT_TRUE(snap.counters.count(counter)) << counter;
      ASSERT_TRUE(snap.gauges.count(gauge)) << gauge;
      EXPECT_EQ(static_cast<double>(snap.counters.at(counter)),
                snap.gauges.at(gauge))
          << tag;
      const std::string msgs = std::string("net.") + tag + ".messages";
      EXPECT_EQ(static_cast<double>(snap.counters.at(msgs)),
                snap.gauges.at("exec." + msgs))
          << tag;
    }
    // Counter cross-checks against the report.
    ServiceReport report = svc.BuildReport();
    EXPECT_EQ(snap.counters.at("service.completed"), report.completed);
    EXPECT_EQ(snap.counters.at("service.rounds"), report.rounds);
    EXPECT_EQ(static_cast<double>(snap.gauges.at("exec.visits")),
              static_cast<double>(report.total_visits));
    // The backend's counters export under their own "exec." names.
    MetricsSnapshot backend_stats;
    svc.backend().AddBackendStats(&backend_stats);
    EXPECT_TRUE(backend_stats.counters.count(backend_gauge));
    for (const auto& [name, value] : backend_stats.counters) {
      EXPECT_EQ(name.rfind("exec.", 0), 0u) << name;
      EXPECT_TRUE(snap.gauges.count(name)) << name;
    }
    // Snapshotting twice must not double-count the injected gauges.
    MetricsSnapshot again = svc.SnapshotMetrics();
    EXPECT_EQ(again.gauges.at("exec.net.query.bytes"),
              snap.gauges.at("exec.net.query.bytes"));
  }
}

TEST(MetricsIntegrationTest, ReportCarriesAdmissionWait) {
  Scenario scenario = MakePortfolio();
  ServiceOptions options;
  options.backend = "sim";
  QueryService svc(&scenario.set, &scenario.st, options);
  ASSERT_TRUE(svc.Submit(Compile(xmark::kYhooQuery), 0.0).ok());
  ASSERT_TRUE(svc.Submit(Compile(xmark::kGoogSellQuery), 0.0).ok());
  svc.Run();
  ServiceReport report = svc.BuildReport();
  // Both queries waited out the batch window before their round.
  ASSERT_EQ(report.admission_wait.count(), 2u);
  EXPECT_GT(report.admission_wait.max(), 0.0);
  EXPECT_NE(report.ToString().find("admission wait"), std::string::npos);

  // Merging reports pools the samples (the catalog aggregate path).
  ServiceReport other = svc.BuildReport();
  other.admission_wait.Merge(report.admission_wait);
  EXPECT_EQ(other.admission_wait.count(), 4u);
}

TEST(MetricsIntegrationTest, SinkEmitsIntervalAndSlowQueryLines) {
  Scenario scenario = MakePortfolio();
  StatsSinkOptions sink_options;
  sink_options.interval_seconds = 1e-4;
  sink_options.slow_query_seconds = 1e-9;  // everything is "slow"
  StatsSink sink(sink_options);
  Tracer tracer;
  ServiceOptions options;
  options.backend = "sim";
  options.sink = &sink;
  options.tracer = &tracer;
  QueryService svc(&scenario.set, &scenario.st, options);
  ASSERT_TRUE(svc.Submit(Compile(xmark::kYhooQuery), 0.0).ok());
  ASSERT_TRUE(svc.Submit(Compile(xmark::kGoogSellQuery), 0.0).ok());
  svc.Run();
  ASSERT_TRUE(svc.Submit(Compile(xmark::kYhooQuery), 1.0).ok());
  svc.Run();
  svc.FlushStats();

  EXPECT_GE(sink.slow_queries(), 2u);
  bool saw_interval = false, saw_trace = false;
  for (const std::string& line : sink.lines()) {
    if (line.find("qps=") != std::string::npos) saw_interval = true;
    if (line.find("trace=") != std::string::npos &&
        line.find("trace=-") == std::string::npos) {
      saw_trace = true;
    }
  }
  EXPECT_TRUE(saw_interval);
  EXPECT_TRUE(saw_trace);  // slow-query lines carry real trace ids
}

TEST(MetricsIntegrationTest, OutcomesCarryTraceIds) {
  Scenario scenario = MakePortfolio();
  Tracer tracer;
  std::vector<service::QueryOutcome> outcomes;
  std::unique_ptr<QueryService> svc =
      ServeMixed(&scenario, "sim", &tracer, &outcomes);
  ASSERT_EQ(outcomes.size(), 3u);
  std::set<uint64_t> trace_ids;
  for (const auto& outcome : outcomes) {
    EXPECT_NE(outcome.trace_id, 0u);
    trace_ids.insert(outcome.trace_id);
  }
  // Three submissions, three distinct traces (the cache hit is its
  // own trace referencing no round).
  EXPECT_EQ(trace_ids.size(), 3u);
}

}  // namespace
}  // namespace parbox

// parbox_bench: one workload of the parbox serving benchmark, run in
// this process from setup to checked answers.
//
//   parbox_bench --workload=NAME [--seed=N] [--seconds=S] [--traced]
//                [--trace-out=FILE] [--smoke]
//
// Phases: set up the service 21 times (parse the corpus text, fragment
// and place it, QueryService::Create) and keep the last; warm
// up open-loop; measure S seconds in eight cycles of an open-loop
// segment and a closed-loop capacity leg; check answers against
// xpath::EvalBoolean over the unfragmented document. Meanwhile the
// workload's first arrivals are replayed on the sim backend for exact
// counts (twice under --smoke, byte-compared).
//
// --traced runs the same phases with an obs::Tracer on the service,
// enabled for the measured open-loop segments only, and folds its spans
// into per-layer self times (and writes them as a Chrome trace).
//
// Progress goes to stderr; the last line of stdout is one JSON object:
//   {"workload": ..., "traced": ..., "correct": ..., "attempted": ...,
//    "failed": ..., "metrics": {"read_p50_ms": ..., ...}}
// A metric whose source counter the service does not export is left
// out. Exit status 0 iff every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "loadgen.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "trace_fold.h"
#include "workload.h"
#include "xml/parser.h"
#include "xpath/eval.h"
#include "xpath/normalize.h"

namespace parbox_bench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 16.0;
  bool traced = false;
  bool smoke = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      args->seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace-out=")) {
      args->trace_out = v;
    } else if (a == "--traced") {
      args->traced = true;
    } else if (a == "--smoke") {
      args->smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Metrics by name.
class Metrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void SetIf(const std::string& name, std::optional<double> value) {
    if (value) values_[name] = *value;
  }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

std::optional<double> Counter(const obs::MetricsSnapshot& s,
                              const std::string& key) {
  auto it = s.counters.find(key);
  if (it == s.counters.end()) return std::nullopt;
  return static_cast<double>(it->second);
}

std::optional<double> Gauge(const obs::MetricsSnapshot& s,
                            const std::string& key) {
  auto it = s.gauges.find(key);
  if (it == s.gauges.end()) return std::nullopt;
  return it->second;
}

/// Growth of a cumulative gauge between two snapshots.
std::optional<double> GaugeDelta(const obs::MetricsSnapshot& before,
                                 const obs::MetricsSnapshot& after,
                                 const std::string& key) {
  std::optional<double> b = Gauge(before, key);
  std::optional<double> a = Gauge(after, key);
  if (!a) return std::nullopt;
  return *a - b.value_or(0.0);
}

/// Sum of the growth of every "exec.net.<tag>.<suffix>" gauge.
std::optional<double> NetDelta(const obs::MetricsSnapshot& before,
                               const obs::MetricsSnapshot& after,
                               const std::string& suffix) {
  std::optional<double> total;
  for (const auto& [key, value] : after.gauges) {
    if (key.rfind("exec.net.", 0) != 0 || key.size() < suffix.size() ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    total = total.value_or(0.0) + value - Gauge(before, key).value_or(0.0);
  }
  return total;
}

/// num / den; 0 when nothing happened to divide by (no updates on a
/// read-only workload), absent only when the service has no `num`.
std::optional<double> Ratio(std::optional<double> num, double den) {
  if (!num) return std::nullopt;
  return den > 0.0 ? *num / den : 0.0;
}

/// A histogram's p50 (`pct` 50) or p99 (`pct` 99), times `scale`.
std::optional<double> HistogramPct(const obs::MetricsSnapshot& s,
                                   const std::string& key, int pct,
                                   double scale) {
  auto it = s.histograms.find(key);
  if (it == s.histograms.end()) return std::nullopt;
  return (pct == 50 ? it->second.p50 : it->second.p99) * scale;
}

/// The service's metrics around one open-loop segment; the registry is
/// reset at the segment's start, so `after`'s counters and histograms
/// cover the segment alone, while backend gauges ("exec.*") are
/// cumulative and count as growth from `before`.
struct Segment {
  obs::MetricsSnapshot before, after;
};

/// Sum of `f` over the segments that have it.
template <typename F>
std::optional<double> Sum(const std::vector<Segment>& segs, F f) {
  std::optional<double> total;
  for (const Segment& g : segs) {
    if (std::optional<double> v = f(g)) total = total.value_or(0.0) + *v;
  }
  return total;
}

/// Median over segments of a histogram percentile.
std::optional<double> MedianPct(const std::vector<Segment>& segs,
                                const std::string& key, int pct,
                                double scale) {
  std::vector<double> values;
  for (const Segment& g : segs) {
    if (std::optional<double> v = HistogramPct(g.after, key, pct, scale)) {
      values.push_back(*v);
    }
  }
  if (values.empty()) return std::nullopt;
  return Median(std::move(values));
}

void Append(const PhaseSamples& from, PhaseSamples* into) {
  auto cat = [](const std::vector<double>& a, std::vector<double>* b) {
    b->insert(b->end(), a.begin(), a.end());
  };
  cat(from.read_latency, &into->read_latency);
  cat(from.update_latency, &into->update_latency);
  cat(from.update_done_at, &into->update_done_at);
  cat(from.late, &into->late);
  cat(from.compile, &into->compile);
  cat(from.submit, &into->submit);
  into->reads_sent += from.reads_sent;
  into->reads_done += from.reads_done;
  into->updates_sent += from.updates_sent;
  into->updates_done += from.updates_done;
}

// ---- Setup ---------------------------------------------------------------

struct Served {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<service::QueryService> service;
  double parse_s = 0.0, fragment_s = 0.0, create_s = 0.0;
  double start_steady = 0.0;  ///< when the parse began
};

Result<Served> SetUp(const std::string& corpus,
                     const service::ServiceOptions& options) {
  Served s;
  s.start_steady = SteadySeconds();
  PARBOX_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseXml(corpus));
  const double t1 = SteadySeconds();
  PARBOX_ASSIGN_OR_RETURN(Deployment d, Fragment(std::move(doc)));
  s.deployment = std::make_unique<Deployment>(std::move(d));
  const double t2 = SteadySeconds();
  PARBOX_ASSIGN_OR_RETURN(
      s.service, service::QueryService::Create(&s.deployment->set,
                                               &s.deployment->st, options));
  const double t3 = SteadySeconds();
  s.parse_s = t1 - s.start_steady;
  s.fragment_s = t2 - t1;
  s.create_s = t3 - t2;
  return s;
}

// ---- Sim replay ----------------------------------------------------------

constexpr int kReplayReads = 256;

struct Replay {
  Metrics counts;
  /// Snapshot plus answers in completion order: byte-compared across
  /// two replays under --smoke.
  std::string fingerprint;
  std::vector<std::pair<std::string, bool>> answers;
};

Result<Replay> ReplayOnSim(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& corpus) {
  PARBOX_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseXml(corpus));
  PARBOX_ASSIGN_OR_RETURN(Deployment d, Fragment(std::move(doc)));
  service::ServiceOptions options;
  options.backend = "sim";
  options.tracer = nullptr;
  PARBOX_ASSIGN_OR_RETURN(std::unique_ptr<service::QueryService> svc,
                          service::QueryService::Create(&d.set, &d.st,
                                                        options));
  Replay replay;
  DeltaTargets targets(d.set);
  ArrivalSchedule schedule(spec, seed, spec.read_rate, spec.delta_rate);
  Arrival a;
  for (int reads = 0; reads < kReplayReads && schedule.Next(kNever, &a);) {
    if (a.is_delta) {
      svc->SubmitDelta(targets.Resolve(a.delta), a.at);
      continue;
    }
    PARBOX_ASSIGN_OR_RETURN(xpath::NormQuery q, xpath::CompileQuery(a.text));
    PARBOX_RETURN_IF_ERROR(
        svc->Submit(std::move(q), a.at,
                    [&replay, text = a.text](const service::QueryOutcome& o) {
                      replay.answers.emplace_back(text, o.answer);
                    })
            .status());
    ++reads;
  }
  svc->Run();
  PARBOX_RETURN_IF_ERROR(svc->status());
  const obs::MetricsSnapshot snap = svc->SnapshotMetrics();
  const obs::MetricsSnapshot none;
  Metrics& m = replay.counts;
  m.SetIf("sim.visits_per_read", Ratio(Gauge(snap, "exec.visits"),
                                       kReplayReads));
  m.SetIf("sim.bytes_per_read",
          Ratio(NetDelta(none, snap, ".bytes"), kReplayReads));
  m.SetIf("sim.messages_per_read",
          Ratio(NetDelta(none, snap, ".messages"), kReplayReads));
  m.SetIf("sim.ops_per_read",
          Ratio(Counter(snap, "service.ops"), kReplayReads));
  m.SetIf("sim.shared_per_read",
          Ratio(Counter(snap, "service.cse_shared_exprs"), kReplayReads));
  m.SetIf("sim.rounds", Counter(snap, "service.rounds"));
  replay.fingerprint = snap.ToJson();
  for (const auto& [text, answer] : replay.answers) {
    replay.fingerprint += text + (answer ? "=1\n" : "=0\n");
  }
  return replay;
}

// ---- Oracle --------------------------------------------------------------

/// Expected answers from xpath::EvalBoolean over an unfragmented
/// document. Each distinct top-level conjunct is evaluated once (on a
/// few threads; evaluation is read-only) and texts combine their
/// conjuncts' answers.
class Oracle {
 public:
  explicit Oracle(const xml::Document& doc) : doc_(doc) {}

  /// Per text: 1 true, 0 false, -1 evaluation failed.
  std::vector<int> Expect(const std::vector<std::string>& texts) {
    std::vector<std::vector<Conjunct>> parts;
    std::vector<std::string> todo;
    for (const std::string& text : texts) {
      parts.push_back(Conjuncts(text));
      for (const Conjunct& c : parts.back()) {
        if (memo_.emplace(c.text, -1).second) todo.push_back(c.text);
      }
    }
    std::vector<int> value(todo.size(), -1);
    constexpr size_t kThreads = 4;
    std::vector<std::thread> pool;
    for (size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = t; i < todo.size(); i += kThreads) {
          Result<xpath::NormQuery> q = xpath::CompileQuery(todo[i]);
          if (!q.ok()) continue;
          Result<bool> answer = xpath::EvalBoolean(*doc_.root(), *q);
          if (answer.ok()) value[i] = *answer ? 1 : 0;
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (size_t i = 0; i < todo.size(); ++i) memo_[todo[i]] = value[i];

    std::vector<int> expected;
    for (const std::vector<Conjunct>& conjuncts : parts) {
      int answer = 1;
      for (const Conjunct& c : conjuncts) {
        const int v = memo_.at(c.text);
        if (v < 0) {
          answer = -1;
          break;
        }
        if ((v == 1) == c.negated) answer = 0;
      }
      expected.push_back(answer);
    }
    return expected;
  }

 private:
  const xml::Document& doc_;
  std::unordered_map<std::string, int> memo_;
};

/// Compares every check with the oracle; prints the first mismatches.
/// `trues` counts checks whose expected answer is true.
bool CheckAnswers(Oracle* oracle, const std::vector<std::string>& texts,
                  const std::vector<AnswerCheck>& checks, size_t* trues) {
  const std::vector<int> expected = oracle->Expect(texts);
  size_t mismatches = 0;
  *trues = 0;
  for (const AnswerCheck& c : checks) {
    const int want = expected[static_cast<size_t>(c.text_id)];
    *trues += want == 1;
    if (want == (c.answer ? 1 : 0)) continue;
    if (++mismatches <= 10) {
      std::fprintf(stderr, "ANSWER MISMATCH: %s served %s, expected %s\n",
                   texts[static_cast<size_t>(c.text_id)].c_str(),
                   c.answer ? "true" : "false",
                   want < 0 ? "(evaluation failed)"
                            : want ? "true" : "false");
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "%zu of %zu checked answers wrong\n", mismatches,
                 checks.size());
  }
  return mismatches == 0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void SetupSpan(obs::Tracer* tracer, const char* name, double start,
               double dur) {
  obs::TraceEvent e;
  e.name = name;
  e.category = "setup";
  e.trace_id = tracer->MintTraceId();
  e.span_id = tracer->MintSpanId();
  e.ts_seconds = start;
  e.dur_seconds = dur;
  tracer->Record(std::move(e));
}

/// Per-layer times from the traced segments.
void AddTraceMetrics(const std::vector<obs::TraceEvent>& events,
                     const PhaseSamples& window, const obs::Tracer& tracer,
                     Metrics* m) {
  const FoldedTrace folded = FoldSpans(events);
  auto self = [&](const std::string& name) {
    auto it = folded.self_seconds.find(name);
    return it == folded.self_seconds.end() ? std::vector<double>()
                                           : it->second;
  };
  std::vector<double> sends;
  for (const auto& [name, values] : folded.self_seconds) {
    if (name.rfind("send[", 0) == 0) {
      sends.insert(sends.end(), values.begin(), values.end());
    }
  }
  m->Set("site.eval_ms_p50", Percentile(self("site.eval"), 50) * 1e3);
  m->Set("site.eval_ms_p99", Percentile(self("site.eval"), 99) * 1e3);
  m->Set("solve.ms_p50", Percentile(self("solve"), 50) * 1e3);
  m->Set("solve.ms_p99", Percentile(self("solve"), 99) * 1e3);
  m->Set("send.ms_p50", Percentile(sends, 50) * 1e3);
  m->Set("send.ms_p99", Percentile(sends, 99) * 1e3);
  m->Set("cache.lookup_ms_p50", Percentile(self("cache.lookup"), 50) * 1e3);
  m->Set("round.self_ms_p50", Percentile(self("round"), 50) * 1e3);

  // Cache maintenance: each update's delta.apply span. Deltas apply in
  // arrival order and complete right after their apply span closes, so
  // the last apply to end before an update's completion is its own.
  std::vector<std::pair<double, double>> applies;  // (end, duration)
  for (const obs::TraceEvent& e : events) {
    if (e.name == "delta.apply" && e.dur_seconds >= 0.0) {
      applies.emplace_back(e.ts_seconds + e.dur_seconds, e.dur_seconds);
    }
  }
  std::sort(applies.begin(), applies.end());
  std::vector<double> apply, queue;
  for (const auto& [end, dur] : applies) apply.push_back(dur);
  for (size_t u = 0; u < window.update_latency.size(); ++u) {
    auto it = std::upper_bound(
        applies.begin(), applies.end(),
        std::make_pair(window.update_done_at[u],
                       std::numeric_limits<double>::infinity()));
    if (it == applies.begin()) continue;
    --it;
    queue.push_back(std::max(0.0, window.update_latency[u] - it->second));
  }
  m->Set("cache.maintain_ms_p50", Percentile(apply, 50) * 1e3);
  m->Set("cache.maintain_ms_p95", Percentile(apply, 95) * 1e3);
  m->Set("update.queue_ms_p50", Percentile(queue, 50) * 1e3);

  m->Set("obs.trace_dropped", static_cast<double>(tracer.dropped()));
  m->Set("trace.explained_frac", folded.explained_frac);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\"; known:",
                 args.workload.c_str());
    for (const WorkloadSpec& w : AllWorkloads()) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus < kContexts) {
    std::fprintf(stderr,
                 "warning: %u CPUs; the workloads are sized for %d "
                 "(coordinator + 3 workers)\n",
                 cpus, kContexts);
  }

  // Phase lengths. The measured time is split into cycles of an
  // open-loop segment (3/4) and a closed-loop capacity leg (1/4), so
  // every metric samples the whole run. Latencies are percentiles of
  // every sample of the open-loop segments, and capacity is the median
  // leg, which a short stall of a shared host does not move.
  const int segments = args.smoke ? 1 : 8;
  const double warmup = args.smoke ? 0.3 : 2.0;
  const double measured_s = args.smoke ? 1.5 : args.seconds;
  const double open_s = measured_s * 0.75 / segments;
  // Setups are spaced apart: back to back they all land in one moment
  // of the host, whose speed swings by half from one moment to the next.
  const int setups = args.smoke ? 2 : 21;
  constexpr auto kSetupGap = std::chrono::milliseconds(50);
  constexpr int kClosedClients = 32;
  const uint64_t closed_reads = std::max<uint64_t>(
      kClosedClients,
      static_cast<uint64_t>(spec.capacity_hint * measured_s * 0.25 /
                            segments));
  const double closed_max_s = 4 * measured_s * 0.25 / segments;
  constexpr size_t kMaxCheckedTexts = 2000;
  constexpr double kClosedCheckShare = 1.0 / 8;

  bool correct = true;
  Metrics m;
  double phase_start = SteadySeconds();
  auto phase_done = [&phase_start](const char* phase) {
    const double now = SteadySeconds();
    std::fprintf(stderr, "  (%s: %.2f s)\n", phase, now - phase_start);
    phase_start = now;
  };
  std::fprintf(stderr, "[%s] seed %llu, %s, corpus %.1f MiB\n", spec.name,
               static_cast<unsigned long long>(args.seed), spec.backend,
               spec.corpus_bytes / 1048576.0);
  const std::string corpus = MakeCorpusText(spec.corpus_bytes, args.seed);
  phase_done("corpus");

  // ---- Setup, several times; the last one serves ----
  obs::Tracer::Options tracer_options;
  tracer_options.enabled = false;
  tracer_options.max_events = 4u << 20;
  obs::Tracer tracer(tracer_options);
  service::ServiceOptions options;
  options.backend = spec.backend;
  options.tracer = args.traced ? &tracer : nullptr;
  std::vector<double> setup_s, parse_s, fragment_s, create_s;
  Served served;
  for (int i = 0; i < setups; ++i) {
    // Tear the previous service down before the deployment it reads.
    served.service.reset();
    served.deployment.reset();
    if (i > 0) std::this_thread::sleep_for(kSetupGap);
    Result<Served> s = SetUp(corpus, options);
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    served = std::move(*s);
    parse_s.push_back(served.parse_s);
    fragment_s.push_back(served.fragment_s);
    create_s.push_back(served.create_s);
    setup_s.push_back(served.parse_s + served.fragment_s + served.create_s);
  }
  m.Set("setup_s", Median(setup_s));
  m.Set("xml.parse_s", Median(parse_s));
  m.Set("fragment.build_s", Median(fragment_s));
  m.Set("service.create_s", Median(create_s));
  service::QueryService& svc = *served.service;
  phase_done("setup");
  if (args.traced) {
    // Setup spans on the service clock (negative: before its epoch).
    tracer.set_enabled(true);
    const double shift = SteadySeconds() - svc.now() - served.start_steady;
    const double t0 = -shift;
    SetupSpan(&tracer, "setup.parse", t0, served.parse_s);
    SetupSpan(&tracer, "setup.fragment", t0 + served.parse_s,
              served.fragment_s);
    SetupSpan(&tracer, "setup.create",
              t0 + served.parse_s + served.fragment_s, served.create_s);
    tracer.set_enabled(false);
  }

  Client client(&svc, served.deployment->set, spec, args.seed,
                args.traced ? &tracer : nullptr);
  const bool static_answers = spec.delta_rate <= 0.0;
  client.set_checking(static_answers, kMaxCheckedTexts);

  // ---- Warm-up, then the measured cycles ----
  client.RunOpenLoop(warmup, /*sampled=*/false);
  phase_done("warm-up");
  PhaseSamples window, closed;  // pooled over segments
  std::vector<Segment> segs;
  std::vector<double> seg_capacity;
  for (int k = 0; k < segments; ++k) {
    svc.metrics().Reset();
    Segment seg;
    seg.before = svc.SnapshotMetrics();
    tracer.set_enabled(args.traced);
    const PhaseSamples open = client.RunOpenLoop(open_s, /*sampled=*/true);
    tracer.set_enabled(false);
    seg.after = svc.SnapshotMetrics();
    segs.push_back(std::move(seg));
    Append(open, &window);
    seg_capacity.push_back(client.RunClosedLoop(
        kClosedClients, closed_reads, closed_max_s,
        static_answers ? kClosedCheckShare : 0.0, &closed));
  }
  const double formula_nodes =
      static_cast<double>(svc.BuildReport().interned_formula_nodes);
  phase_done("measured cycles");
  std::fprintf(stderr, "  legs capacity_qps:");
  for (double x : seg_capacity) std::fprintf(stderr, " %.6g", x);
  std::fprintf(stderr, "\n");
  if (!svc.status().ok()) {
    std::fprintf(stderr, "FAILED: service error: %s\n",
                 svc.status().ToString().c_str());
    correct = false;
  }

  // ---- End to end ----
  const double reads = static_cast<double>(window.reads_done);
  const double updates = static_cast<double>(window.updates_done);
  m.Set("read_p50_ms", Percentile(window.read_latency, 50) * 1e3);
  m.Set("read_p99_ms", Percentile(window.read_latency, 99) * 1e3);
  m.Set("capacity_qps", Median(seg_capacity));
  m.Set("update_p50_ms", Percentile(window.update_latency, 50) * 1e3);
  m.Set("update_p95_ms", Percentile(window.update_latency, 95) * 1e3);
  const uint64_t attempted = window.reads_sent + window.updates_sent +
                             closed.reads_sent + closed.updates_sent;
  // Refused, failed and never-completed operations alike.
  const uint64_t failed = attempted - window.reads_done -
                          window.updates_done - closed.reads_done -
                          closed.updates_done;
  m.Set("failed_frac", attempted == 0 ? 0.0
                                      : static_cast<double>(failed) /
                                            static_cast<double>(attempted));
  m.Set("reads.samples", static_cast<double>(window.read_latency.size()));
  m.Set("updates.samples", static_cast<double>(window.update_latency.size()));
  m.Set("slo.p99_limit_ms", spec.slo_p99_ms);

  // ---- Per layer ----
  m.Set("loadgen.late_p50_ms", Percentile(window.late, 50) * 1e3);
  m.Set("loadgen.late_p99_ms", Percentile(window.late, 99) * 1e3);
  m.Set("loadgen.achieved_qps", static_cast<double>(window.reads_sent) /
                                    (open_s * segments));
  m.Set("xpath.compile_us_p50", Median(window.compile) * 1e6);
  m.Set("service.submit_us_p50", Median(window.submit) * 1e6);
  m.SetIf("service.admission_wait_ms_p50",
          MedianPct(segs, "service.admission_wait_seconds", 50, 1e3));
  m.SetIf("service.admission_wait_ms_p99",
          MedianPct(segs, "service.admission_wait_seconds", 99, 1e3));
  m.SetIf("service.batch_width_p50",
          MedianPct(segs, "service.batch_width", 50, 1.0));
  m.SetIf("service.batch_width_p99",
          MedianPct(segs, "service.batch_width", 99, 1.0));
  auto counter = [&segs](const char* key) {
    return Sum(segs, [key](const Segment& g) { return Counter(g.after, key); });
  };
  auto growth = [&segs](const char* key) {
    return Sum(segs, [key](const Segment& g) {
      return GaugeDelta(g.before, g.after, key);
    });
  };
  auto net = [&segs](const char* suffix) {
    return Sum(segs, [suffix](const Segment& g) {
      return NetDelta(g.before, g.after, suffix);
    });
  };
  const std::optional<double> rounds = counter("service.rounds");
  m.SetIf("service.rounds_per_read", Ratio(rounds, reads));
  m.SetIf("service.shared_frac", Ratio(counter("service.shared_evals"), reads));
  m.SetIf("cache.hit_frac", Ratio(counter("service.cache_hits"), reads));
  m.SetIf("cache.subsume_frac",
          Ratio(counter("cache.subsumption_hits"), reads));
  m.SetIf("cache.entries", Gauge(segs.back().after, "service.cache_size"));
  const std::optional<double> evictions =
      counter("service.cache_invalidations");
  m.SetIf("cache.evictions_per_update", Ratio(evictions, updates));
  m.SetIf("cache.refreshes_per_update",
          Ratio(counter("service.cache_refreshes"), updates));
  m.SetIf("kernel.ops_per_read", Ratio(counter("service.ops"), reads));
  m.SetIf("kernel.shared_per_read",
          Ratio(counter("service.cse_shared_exprs"), reads));
  m.SetIf("kernel.fused_walks_per_round",
          Ratio(counter("service.fused_walks"), rounds.value_or(0)));
  m.SetIf("site.busy_frac", Ratio(growth("exec.busy_seconds"),
                                  kContexts * open_s * segments));
  m.Set("formula.nodes", formula_nodes);
  m.SetIf("exec.visits_per_read", Ratio(growth("exec.visits"), reads));
  m.SetIf("exec.messages_per_read", Ratio(net(".messages"), reads));
  m.SetIf("exec.bytes_per_read", Ratio(net(".bytes"), reads));
  m.SetIf("net.frames_per_read", Ratio(growth("exec.proc.frames"), reads));
  m.SetIf("net.retries", growth("exec.proc.retries"));
  m.SetIf("net.rtt_us_mean", Ratio(growth("exec.proc.rtt_micros"),
                                   growth("exec.proc.acked").value_or(0)));

  if (args.traced) {
    AddTraceMetrics(tracer.Collect(), window, tracer, &m);
    if (tracer.dropped() != 0) {
      std::fprintf(stderr, "FAILED: tracer dropped %llu events\n",
                   static_cast<unsigned long long>(tracer.dropped()));
      correct = false;
    }
    if (!args.trace_out.empty()) {
      const Status written = tracer.WriteChromeJson(args.trace_out, spec.name);
      if (!written.ok()) {
        std::fprintf(stderr, "cannot write trace: %s\n",
                     written.ToString().c_str());
      }
    }
  }

  // ---- Off the clock: exact counts on the sim, and answers ----
  // The replay has its own deployment and service, so it runs on its
  // own thread while the oracle evaluates.
  std::optional<Result<Replay>> replay, again;
  std::thread sim_thread([&] {
    replay = ReplayOnSim(spec, args.seed, corpus);
    if (args.smoke) again = ReplayOnSim(spec, args.seed, corpus);
  });
  if (!static_answers) {
    if (!evictions || *evictions <= 0) {
      std::fprintf(stderr,
                   "FAILED: no cache entry was evicted, so no delta "
                   "flipped an answer\n");
      correct = false;
    }
    client.ReaskPortfolio();
  }
  Result<xml::Document> truth =
      static_answers ? xml::ParseXml(corpus)
                     : served.deployment->set.Reassemble();
  if (!truth.ok()) {
    std::fprintf(stderr, "oracle document: %s\n",
                 truth.status().ToString().c_str());
    sim_thread.join();
    return 1;
  }
  Oracle oracle(*truth);
  size_t trues = 0;
  if (!CheckAnswers(&oracle, client.texts(), client.checks(), &trues)) {
    correct = false;
  }
  const double checked = static_cast<double>(client.checks().size());
  m.Set("oracle.checked", checked);
  m.Set("oracle.true_frac", checked > 0 ? trues / checked : 0.0);
  if (static_answers && !spec.portfolio && checked > 0 &&
      (trues < 0.1 * checked || trues > 0.9 * checked)) {
    std::fprintf(stderr,
                 "FAILED: %.0f%% of answers true; the workload needs a "
                 "mix (10%%..90%%)\n",
                 100.0 * trues / checked);
    correct = false;
  }
  sim_thread.join();
  if (!replay->ok()) {
    std::fprintf(stderr, "FAILED: sim replay: %s\n",
                 replay->status().ToString().c_str());
    correct = false;
  } else {
    for (const auto& [name, value] : (*replay)->counts.values()) {
      m.Set(name, value);
    }
    if (args.smoke &&
        (!again->ok() || (*again)->fingerprint != (*replay)->fingerprint)) {
      std::fprintf(stderr, "FAILED: sim replay is not deterministic\n");
      correct = false;
    }
    if (static_answers) {
      // The replay's answers must match the same oracle.
      std::vector<std::string> texts;
      std::vector<AnswerCheck> checks;
      for (const auto& [text, answer] : (*replay)->answers) {
        checks.push_back({static_cast<int>(texts.size()), answer});
        texts.push_back(text);
      }
      size_t sim_trues = 0;
      if (!CheckAnswers(&oracle, texts, checks, &sim_trues)) correct = false;
    }
  }
  m.Set("peak_rss_mb", PeakRssMb());
  phase_done("sim replay and answer checks");

  if (!args.smoke && window.read_latency.size() < 1000) {
    std::fprintf(stderr, "warning: only %zu read samples (want >= 1000)\n",
                 window.read_latency.size());
  }
  for (const auto& [name, value] : m.values()) {
    std::fprintf(stderr, "  %-32s %.6g\n", name.c_str(), value);
  }
  std::fprintf(stderr, "[%s] %s, %llu attempted, %llu failed\n", spec.name,
               correct ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));

  std::string json = "{\"workload\": \"" + std::string(spec.name) +
                     "\", \"traced\": " + (args.traced ? "true" : "false") +
                     ", \"correct\": " + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m.values()) {
    json += (first ? "\"" : ", \"") + name + "\": " + JsonNumber(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace parbox_bench

int main(int argc, char** argv) {
  parbox_bench::Args args;
  if (!parbox_bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload=NAME [--seed=N] [--seconds=S] "
                 "[--traced] [--trace-out=FILE] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  return parbox_bench::Run(args);
}

// Experiment X7: prepared-query reuse — the acceptance bench for the
// Session / PreparedQuery API.
//
// The serving pattern the Session API exists for: the same query
// arrives over and over against a long-lived deployment. Two ways to
// pay for it, measured in host wall-clock time per call:
//
//   parse-per-call — xpath::CompileQuery, then Session::Create,
//                    Prepare and Execute for every arrival (the
//                    one-shot pattern): each call re-parses and
//                    re-normalizes the text, re-validates,
//                    re-fingerprints, rebuilds a cluster and a formula
//                    factory, and re-partitions the sites.
//   prepared       — Session::Prepare once, Session::Execute per
//                    arrival: the hot path starts at evaluation; the
//                    cluster is rewound, not rebuilt, and the shared
//                    hash-consing factory serves interned formulas
//                    back to every run.
//
// Virtual-clock results are bit-identical by construction (asserted
// below); the win is real host time. Gate: prepared re-execution must
// be >= 1.5x faster per call on mean wall time, or the process exits 1.

#include <chrono>
#include <string>

#include "bench_common.h"
#include "obs/metrics.h"

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Experiment X7",
              "prepared-query reuse vs parse-per-call (host wall time)",
              config);

  // A point-lookup-sized deployment, deliberately pinned (not scaled by
  // PARBOX_BENCH_BYTES): this gate isolates the per-call API overhead —
  // parse, validation, fingerprinting, cluster construction, partition
  // planning, cold-factory interning — which is what Prepare/Execute
  // amortizes. Corpus-scale behaviour is swept by the other benches;
  // here a large corpus would bury the fixed costs under evaluation
  // time that both paths share.
  Deployment d = MakeStar(2, 512, config.seed);
  const std::string query_text =
      "[//item[payment = \"Creditcard\" and shipping] and "
      "//person[creditcard and profile/interest] and "
      "not(//category[name = \"none\"])]";
  const int kWarmup = 64;
  const int kCalls = 2048;
  std::printf("%zu elements, %zu fragments, %d sites\nquery: %s\n",
              d.set.TotalElements(), d.set.live_count(), d.st.num_sites(),
              query_text.c_str());

  // ---- parse-per-call ----
  obs::Histogram per_call;
  bool baseline_answer = false;
  double baseline_makespan = 0.0;
  for (int i = -kWarmup; i < kCalls; ++i) {
    const double start = NowSeconds();
    auto q = xpath::CompileQuery(query_text);
    Check(q.status());
    // The one-shot session is torn down inside the timed call.
    const core::RunReport report = [&] {
      auto one_shot = core::Session::Create(&d.set, &d.st);
      Check(one_shot.status());
      auto prepared = one_shot->Prepare(&*q);
      Check(prepared.status());
      auto run = one_shot->Execute(*prepared);
      Check(run.status());
      return std::move(*run);
    }();
    const double elapsed = NowSeconds() - start;
    if (i >= 0) per_call.Add(elapsed);
    baseline_answer = report.answer;
    baseline_makespan = report.makespan_seconds;
  }

  // ---- prepared ----
  core::Session session = OpenSession(d);
  core::PreparedQuery prepared = [&] {
    auto p = session.Prepare(query_text);
    Check(p.status());
    return std::move(*p);
  }();
  obs::Histogram per_exec;
  for (int i = -kWarmup; i < kCalls; ++i) {
    const double start = NowSeconds();
    core::RunReport report = Exec(&session, prepared);
    const double elapsed = NowSeconds() - start;
    if (i >= 0) per_exec.Add(elapsed);
    // The virtual-cost profile must not drift from a fresh run.
    if (report.answer != baseline_answer ||
        report.makespan_seconds != baseline_makespan) {
      std::fprintf(stderr, "RESULT DRIFT: prepared execution differs "
                           "from parse-per-call\n");
      return 1;
    }
  }

  std::printf("\n%-16s %s\n", "parse-per-call",
              per_call.Summary("us", 1e6).c_str());
  std::printf("%-16s %s\n", "prepared",
              per_exec.Summary("us", 1e6).c_str());

  const double speedup_mean = per_call.mean() / per_exec.mean();
  const double speedup_p50 =
      per_call.Percentile(50) / per_exec.Percentile(50);
  std::printf("\nspeedup: mean %.2fx, p50 %.2fx (target >= 1.5x mean)\n",
              speedup_mean, speedup_p50);
  JsonReport json("bench_x7_prepared_reuse");
  json.Add("parse_per_call_mean_seconds", per_call.mean());
  json.Add("prepared_mean_seconds", per_exec.mean());
  json.Add("speedup_mean", speedup_mean);
  json.Add("speedup_p50", speedup_p50);
  if (speedup_mean < 1.5) {
    std::fprintf(stderr,
                 "FAILED: prepared reuse below 1.5x parse-per-call\n");
    return 1;
  }
  std::printf("answers: all %d executions bit-identical to "
              "parse-per-call\n",
              kCalls);
  return 0;
}

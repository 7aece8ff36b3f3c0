// Experiment X13: fused multi-query partial evaluation.
//
// K = 16 similar queries — one family: a 12-step descendant chain
// base plus 15 label-qualified variants — arrive as one burst over
// the X6 star corpus. Served two ways:
//
//   independent — cache off, one query per round: every query is its
//                 own one-lane batch, one bottom-up walk per
//                 (fragment x query), exactly the pre-fusion service.
//   fused       — one walk per fragment evaluates ALL K lanes at
//                 once (xpath/eval.h): the shared 37-entry
//                 chain prefix is computed once per element and
//                 donor-copied into every lane, so per-element cost
//                 is |prefix| + K x |suffix| instead of K x |QList|.
//
// Gates: fused wall clock >= 2x independent (best of 3), fused
// kernel ops <= 1/(K/2) = 1/8 of independent, and answers
// bit-identical to standalone ParBoX on sim AND identical across
// the threads and proc:2 backends.
//
// A second leg exercises result-cache subsumption: with a variant
// cached, its unqualified base — a QList *prefix* of the cached
// query — must answer by re-solving the truncated retained equation
// system with ZERO site visits and zero new network bytes.

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "service/query_service.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Experiment X13",
              "fused multi-query partial evaluation, K=16 burst", config);

  constexpr int kQueries = 16;
  constexpr int kChainSteps = 12;

  Deployment d = MakeStar(8, config.total_bytes, config.seed);
  std::printf("%zu elements, %zu fragments, %d sites\n",
              d.set.TotalElements(), d.set.live_count(), d.st.num_sites());

  auto family_query = [&](int member) {
    auto q = xmark::MakeFamilyQuery(kChainSteps, member - 1);
    Check(q.status());
    return std::move(*q);
  };

  // ---- Standalone oracle answers ----
  core::Session session = OpenSession(d);
  std::vector<bool> expected;
  for (int m = 0; m < kQueries; ++m) {
    core::PreparedQuery prepared = PrepareQuery(&session, family_query(m));
    expected.push_back(Exec(&session, prepared).answer);
  }

  struct BurstResult {
    double wall_seconds = 0.0;  ///< best of 3
    service::ServiceReport report;
  };
  auto run_burst = [&](const std::string& backend,
                       bool fused) -> BurstResult {
    BurstResult best;
    best.wall_seconds = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      service::ServiceOptions options;
      options.backend = backend;
      options.cache_capacity = 0;
      if (!fused) options.max_batch_queries = 1;
      service::QueryService svc(&d.set, &d.st, options);
      std::vector<service::QueryOutcome> outcomes;
      const auto t0 = std::chrono::steady_clock::now();
      for (int m = 0; m < kQueries; ++m) {
        Check(svc.Submit(family_query(m), 0.0,
                         [&outcomes](const service::QueryOutcome& o) {
                           outcomes.push_back(o);
                         })
                  .status());
      }
      svc.Run();
      const auto t1 = std::chrono::steady_clock::now();
      Check(svc.status());
      for (const auto& outcome : outcomes) {
        if (outcome.answer != expected[outcome.query_id]) {
          std::fprintf(stderr,
                       "ANSWER MISMATCH: %s %s query %llu\n",
                       backend.c_str(), fused ? "fused" : "independent",
                       static_cast<unsigned long long>(outcome.query_id));
          std::exit(1);
        }
      }
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      if (wall < best.wall_seconds) {
        best.wall_seconds = wall;
        best.report = svc.BuildReport();
      }
    }
    return best;
  };

  const BurstResult independent = run_burst("sim", /*fused=*/false);
  const BurstResult fused = run_burst("sim", /*fused=*/true);
  // The real backends must answer the same burst identically (the
  // differential suite holds the full slice; the bench re-checks the
  // answers at corpus scale).
  run_burst("threads", /*fused=*/true);
  run_burst("proc:2", /*fused=*/true);

  const double wall_speedup =
      independent.wall_seconds / fused.wall_seconds;
  const double ops_ratio =
      static_cast<double>(independent.report.total_ops) /
      static_cast<double>(fused.report.total_ops);
  std::printf("\n%-14s %-12s %-14s %-12s %-10s\n", "mode", "wall (s)",
              "kernel ops", "fused walks", "shared");
  std::printf("%-14s %-12.4f %-14llu %-12llu %-10s\n", "independent",
              independent.wall_seconds,
              static_cast<unsigned long long>(independent.report.total_ops),
              static_cast<unsigned long long>(
                  independent.report.fused_walks),
              "-");
  std::printf("%-14s %-12.4f %-14llu %-12llu %-10llu\n", "fused",
              fused.wall_seconds,
              static_cast<unsigned long long>(fused.report.total_ops),
              static_cast<unsigned long long>(fused.report.fused_walks),
              static_cast<unsigned long long>(
                  fused.report.cse_shared_exprs));
  std::printf("\nwall speedup %.1fx (target >= 2x), eval-op ratio %.1fx "
              "(target >= %dx)\n",
              wall_speedup, ops_ratio, kQueries / 2);

  // ---- Subsumption leg: base answered from a cached variant ----
  service::QueryService svc(&d.set, &d.st);
  std::vector<service::QueryOutcome> outcomes;
  auto record = [&outcomes](const service::QueryOutcome& o) {
    outcomes.push_back(o);
  };
  Check(svc.Submit(family_query(1), 0.0, record).status());  // variant
  svc.Run();
  Check(svc.status());
  const uint64_t bytes_before = svc.backend().traffic().total_bytes();
  const std::vector<uint64_t> visits_before = svc.backend().visits();
  Check(svc.Submit(family_query(0), svc.now(), record).status());  // base
  svc.Run();
  Check(svc.status());
  const service::ServiceReport sub_report = svc.BuildReport();
  const bool sub_zero_cost =
      svc.backend().visits() == visits_before &&
      svc.backend().traffic().total_bytes() == bytes_before;
  const bool sub_correct =
      outcomes.size() == 2 && outcomes[1].subsumption_hit &&
      outcomes[1].answer == expected[0];
  std::printf("subsumption: %llu hit(s), zero-cost %s, answer %s\n",
              static_cast<unsigned long long>(sub_report.subsumption_hits),
              sub_zero_cost ? "yes" : "NO",
              sub_correct ? "correct" : "WRONG");

  JsonReport json("bench_x13_multiquery_fusion");
  json.Add("independent_wall_seconds", independent.wall_seconds);
  json.Add("fused_wall_seconds", fused.wall_seconds);
  json.Add("wall_speedup", wall_speedup);
  json.Add("independent_ops",
           static_cast<double>(independent.report.total_ops));
  json.Add("fused_ops", static_cast<double>(fused.report.total_ops));
  json.Add("ops_ratio", ops_ratio);
  json.Add("fused_walks",
           static_cast<double>(fused.report.fused_walks));
  json.Add("cse_shared_exprs",
           static_cast<double>(fused.report.cse_shared_exprs));
  json.Add("subsumption_hits",
           static_cast<double>(sub_report.subsumption_hits));

  if (wall_speedup < 2.0) {
    std::fprintf(stderr, "FAILED: fused wall speedup %.2fx < 2x\n",
                 wall_speedup);
    return 1;
  }
  if (ops_ratio < kQueries / 2) {
    std::fprintf(stderr, "FAILED: eval-op ratio %.2fx < %dx\n", ops_ratio,
                 kQueries / 2);
    return 1;
  }
  if (sub_report.subsumption_hits != 1 || !sub_zero_cost || !sub_correct) {
    std::fprintf(stderr, "FAILED: subsumption leg\n");
    return 1;
  }
  std::printf("answers: all %d bit-identical to standalone ParBoX on "
              "sim, threads, proc:2\n",
              kQueries);
  return 0;
}

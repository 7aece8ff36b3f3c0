// X14 (acceptance bench): fair-share multi-tenant scheduling —
// tail-latency isolation under zipf skew.
//
// Four documents share one threads:8 catalog host; document d0 is hot
// (10x every cold document's arrival rate — one aggregate Poisson
// stream split 10:1:1:1), d1..d3 are cold. The same pre-drawn
// cross-document plan is replayed three ways:
//
//   * isolated — each cold document alone on a dedicated threads:8
//     service, replaying exactly its slice of the plan: the
//     no-interference baseline for cold p99.
//   * fifo     — the shared catalog with the scheduler off (every
//     round dispatches the moment its batch closes): the hot
//     document's round storm and the cold rounds fight for the same
//     workers unarbitrated.
//   * fair     — the shared catalog admitting rounds through the DWRR
//     fair-share scheduler (equal weights, max_in_flight=4).
//
// Gates (hosts with >= 4 hardware threads; else SKIPPED):
//   * isolation  — fair-share pooled cold p99 < 2x the isolated
//     baseline's, despite the hot tenant's 10x load;
//   * no-regress — fair-share aggregate throughput >= 0.9x FIFO's.
//
// Answers are exactness-checked everywhere: scheduler on/off must be
// bit-identical per document on sim, threads:8, and proc:2 (the
// scheduler may reorder round dispatches, never change results).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "catalog/catalog.h"
#include "fragment/placement.h"
#include "obs/metrics.h"
#include "service/catalog_service.h"
#include "service/query_service.h"
#include "service/scheduler.h"
#include "service/workload.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("X14",
              "fair-share scheduler: cold-tenant p99 under a 10x hot tenant",
              config);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host has %u hardware threads\n\n", hw);

  constexpr int kDocs = 4;  // d0 hot, d1..d3 cold
  constexpr int kSitesPerDoc = 5;
  constexpr size_t kPlanQueries = 1040;
  constexpr double kRateQps = 2000.0;

  auto workload = service::Workload::Make({.distinct_queries = 16,
                                           .min_qlist_size = 3,
                                           .zipf_s = 0.0,
                                           .doc_zipf_s = 0.0,
                                           .hot_multiplier = 10.0});
  Check(workload.status());

  // ONE plan, drawn once: every leg (isolated, fifo, fair, oracle)
  // replays the identical submission stream.
  const service::CrossDocPlan plan = service::MakeCrossDocPlan(
      *workload, kDocs,
      {.num_queries = kPlanQueries,
       .arrival_rate_qps = kRateQps,
       .seed = config.seed});
  std::vector<size_t> per_doc_count(kDocs, 0);
  for (const auto& item : plan.items) ++per_doc_count[item.doc];
  std::printf("plan: %zu queries at %.0f q/s aggregate; per-doc counts:",
              plan.items.size(), kRateQps);
  for (int d = 0; d < kDocs; ++d) {
    std::printf(" d%d=%zu", d, per_doc_count[d]);
  }
  std::printf("\n\n");

  service::ServiceOptions base_options;
  base_options.cache_capacity = 0;  // every query does real site work

  auto make_doc = [&](int d) {
    return MakeStar(kSitesPerDoc, config.total_bytes / kDocs,
                    config.seed + static_cast<uint64_t>(d));
  };
  std::vector<std::string> doc_names;
  for (int d = 0; d < kDocs; ++d) {
    doc_names.push_back("d" + std::to_string(d));
  }

  struct SharedRun {
    std::vector<std::vector<char>> answers;  // per doc, by query id
    double cold_p99 = 0.0;
    double agg_qps = 0.0;
    uint64_t deferred = 0;
  };
  // Serve the full plan on one shared catalog host.
  auto serve_shared = [&](const std::string& backend, bool fair,
                          const service::CrossDocPlan& p) {
    catalog::CatalogOptions cat_options;
    cat_options.backend = backend;
    auto cat = catalog::Catalog::Create(cat_options);
    Check(cat.status());
    for (int d = 0; d < kDocs; ++d) {
      Deployment dep = make_doc(d);
      auto placement = frag::Placement::Create(
          dep.set, frag::AssignOneSitePerFragment(dep.set));
      Check(placement.status());
      Check((*cat)
                ->Open(doc_names[d], std::move(dep.set),
                       std::move(*placement))
                .status());
    }
    service::ServiceOptions options = base_options;
    options.enable_fair_share = fair;
    options.fair_share.max_in_flight = 4;
    auto svc = service::CatalogService::Create(cat->get(), options);
    Check(svc.status());
    if (fair) {
      // The hot tenant may hold at most 2 of the 4 slots: two slots
      // always stand ready for a cold arrival, and the worker-queue
      // backlog in front of any cold round stays bounded by two
      // rounds' site tasks. Work-conserving DWRR still lets the hot
      // document use both its slots flat-out while the colds idle.
      Check((*svc)->ConfigureTenant(
          doc_names[0],
          service::TenantConfig{.weight = 1.0, .max_in_flight = 2}));
    }
    std::vector<std::vector<service::QueryOutcome>> outcomes;
    auto report = service::RunCrossDocOpenLoop(svc->get(), *workload,
                                               doc_names, p, &outcomes);
    Check(report.status());
    SharedRun run;
    run.agg_qps = report->throughput_qps;
    run.deferred = report->sched_deferred;
    obs::Histogram cold;
    run.answers.assign(kDocs, {});
    for (int d = 0; d < kDocs; ++d) {
      std::vector<std::pair<uint64_t, bool>> byid;
      for (const service::QueryOutcome& o : outcomes[d]) {
        byid.emplace_back(o.query_id, o.answer);
      }
      std::sort(byid.begin(), byid.end());
      for (const auto& [id, answer] : byid) {
        run.answers[d].push_back(answer ? 1 : 0);
      }
      if (d > 0) {
        cold.Merge(
            (*svc)->document_service(doc_names[d])->BuildReport().latency);
      }
    }
    run.cold_p99 = cold.Percentile(99);
    return run;
  };

  // Replay one cold document's slice of the plan on a dedicated host.
  auto isolated_cold_p99 = [&](const std::string& backend) {
    obs::Histogram cold;
    for (int d = 1; d < kDocs; ++d) {
      Deployment dep = make_doc(d);
      service::ServiceOptions options = base_options;
      options.backend = backend;
      auto svc = service::QueryService::Create(&dep.set, &dep.st, options);
      Check(svc.status());
      for (const auto& item : plan.items) {
        if (item.doc != static_cast<size_t>(d)) continue;
        auto q = workload->Materialize(item.query);
        Check(q.status());
        Check((*svc)->Submit(std::move(*q), item.arrival).status());
      }
      (*svc)->Run();
      Check((*svc)->status());
      cold.Merge((*svc)->BuildReport().latency);
    }
    return cold.Percentile(99);
  };

  // ---- Answer exactness: scheduler on/off across all backends ----
  const SharedRun sim_fair = serve_shared("sim", true, plan);
  const SharedRun sim_fifo = serve_shared("sim", false, plan);
  if (sim_fair.answers != sim_fifo.answers) {
    std::fprintf(stderr, "FAILED: ANSWER MISMATCH scheduler on/off (sim)\n");
    return 1;
  }
  if (sim_fair.deferred == 0) {
    std::fprintf(stderr,
                 "FAILED: fair-share run deferred no rounds — the "
                 "scheduler never engaged\n");
    return 1;
  }
  // proc:2 leg on a smaller plan (daemon round trips are expensive).
  const service::CrossDocPlan small_plan = service::MakeCrossDocPlan(
      *workload, kDocs,
      {.num_queries = 36, .arrival_rate_qps = 0.0, .seed = config.seed});
  const SharedRun proc_fair = serve_shared("proc:2", true, small_plan);
  const SharedRun proc_fifo = serve_shared("proc:2", false, small_plan);
  const SharedRun sim_small = serve_shared("sim", true, small_plan);
  if (proc_fair.answers != proc_fifo.answers ||
      proc_fair.answers != sim_small.answers) {
    std::fprintf(stderr, "FAILED: ANSWER MISMATCH scheduler on/off (proc:2)\n");
    return 1;
  }
  std::printf("answers: scheduler on/off bit-identical on sim and proc:2\n");

  // ---- Perf legs: best of 3 on threads:8 ----
  // Best (min / max) of each metric independently, the usual
  // noise-robust treatment: one slow rep of one leg (scheduler noise
  // on a shared CI host) must not sink a ratio built from another
  // leg's good rep.
  double fair_p99 = 1e30, fifo_p99 = 1e30, iso_p99 = 1e30;
  double fair_qps = 0.0, fifo_qps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double iso = isolated_cold_p99("threads:8");
    const SharedRun fifo = serve_shared("threads:8", false, plan);
    const SharedRun fair = serve_shared("threads:8", true, plan);
    if (fair.answers != sim_fair.answers ||
        fifo.answers != sim_fair.answers) {
      std::fprintf(stderr,
                   "FAILED: ANSWER MISMATCH scheduler on/off (threads:8)\n");
      return 1;
    }
    std::printf(
        "rep %d: cold p99 isolated %.3f ms, fifo %.3f ms, fair %.3f ms; "
        "qps fifo %.0f, fair %.0f\n",
        rep, iso * 1e3, fifo.cold_p99 * 1e3, fair.cold_p99 * 1e3,
        fifo.agg_qps, fair.agg_qps);
    iso_p99 = std::min(iso_p99, iso);
    fifo_p99 = std::min(fifo_p99, fifo.cold_p99);
    fair_p99 = std::min(fair_p99, fair.cold_p99);
    fifo_qps = std::max(fifo_qps, fifo.agg_qps);
    fair_qps = std::max(fair_qps, fair.agg_qps);
  }
  const double best_isolation_ratio = fair_p99 / iso_p99;
  const double best_qps_ratio = fair_qps / fifo_qps;

  std::printf("\n%-30s %-14s %-14s\n", "cold-tenant pooled p99",
              "latency (ms)", "vs isolated");
  std::printf("%-30s %-14.3f %-14s\n", "isolated baseline", iso_p99 * 1e3,
              "1.00x");
  std::printf("%-30s %-14.3f %-14.2fx\n", "shared, fifo", fifo_p99 * 1e3,
              fifo_p99 / iso_p99);
  std::printf("%-30s %-14.3f %-14.2fx\n", "shared, fair-share",
              fair_p99 * 1e3, best_isolation_ratio);
  std::printf("\naggregate throughput: fifo %.0f q/s, fair %.0f q/s "
              "(%.2fx; gate >= 0.9x)\n",
              fifo_qps, fair_qps, best_qps_ratio);

  JsonReport json("bench_x14_fair_share");
  json.Add("docs", kDocs);
  json.Add("plan_queries", static_cast<double>(plan.items.size()));
  json.Add("hot_multiplier", 10.0);
  json.Add("isolated_cold_p99_seconds", iso_p99);
  json.Add("fifo_cold_p99_seconds", fifo_p99);
  json.Add("fair_cold_p99_seconds", fair_p99);
  json.Add("isolation_ratio", best_isolation_ratio);
  json.Add("fifo_qps", fifo_qps);
  json.Add("fair_qps", fair_qps);
  json.Add("qps_ratio", best_qps_ratio);
  json.Add("hardware_threads", hw);

  if (hw < 4) {
    std::printf("SKIPPED: host has %u hardware threads; the isolation "
                "gate needs >= 4 to be meaningful. Answers verified "
                "bit-identical scheduler on/off on sim, threads, and "
                "proc:2.\n",
                hw);
    return 0;
  }
  if (best_isolation_ratio >= 2.0) {
    std::fprintf(stderr,
                 "FAILED: fair-share cold p99 is %.2fx the isolated "
                 "baseline (gate: < 2x)\n",
                 best_isolation_ratio);
    return 1;
  }
  if (best_qps_ratio < 0.9) {
    std::fprintf(stderr,
                 "FAILED: fair-share aggregate throughput is %.2fx "
                 "FIFO's (gate: >= 0.9x)\n",
                 best_qps_ratio);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

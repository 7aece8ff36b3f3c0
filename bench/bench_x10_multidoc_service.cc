// X10 (acceptance bench): multi-document serving on one shared
// backend vs isolated per-document services.
//
// The point of the catalog refactor: N documents share ONE worker
// pool instead of standing up N clusters. Eight small star
// deployments each serve a burst of distinct queries (cache off, so
// every query does real site work):
//
//   * isolated — eight dedicated QueryServices, each with its own
//     threads:8 pool, run one after another (the pre-catalog
//     architecture: one deployment per document). Per-document
//     parallelism is capped by the document's handful of sites, so
//     most of each pool idles.
//   * shared   — one catalog::Catalog + service::CatalogService on a
//     single threads:8 host; all eight documents' rounds interleave
//     on the same workers.
//
// Gate: shared aggregate throughput >= 1.5x the isolated aggregate
// (total queries over summed wall time), enforced on hosts with >= 4
// hardware threads (CI). Answers are checked per document against the
// sim oracle at both configurations.

#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "catalog/catalog.h"
#include "fragment/placement.h"
#include "service/catalog_service.h"
#include "service/query_service.h"
#include "service/workload.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("X10", "multi-document serving: 8 docs on one threads:8 host",
              config);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host has %u hardware threads\n\n", hw);

  constexpr int kDocs = 8;
  constexpr int kSitesPerDoc = 5;
  constexpr size_t kQueriesPerDoc = 24;

  auto workload = service::Workload::Make(
      {.distinct_queries = 16, .min_qlist_size = 3, .zipf_s = 0.0});
  Check(workload.status());

  service::ServiceOptions options;
  options.cache_capacity = 0;  // every query does real site work

  // One deployment generator per document, deterministic per seed so
  // the isolated, shared, and oracle runs see identical documents.
  auto make_doc = [&](int d) {
    return MakeStar(kSitesPerDoc, config.total_bytes / kDocs,
                    config.seed + static_cast<uint64_t>(d));
  };
  auto doc_name = [](int d) { return "doc" + std::to_string(d); };

  // Per-document answer streams for one serve of `backend`; isolated
  // services, run sequentially.
  auto serve_isolated = [&](const std::string& backend,
                            std::vector<std::vector<char>>* answers,
                            double* wall_seconds) {
    answers->assign(kDocs, {});
    *wall_seconds = 0.0;
    for (int d = 0; d < kDocs; ++d) {
      Deployment dep = make_doc(d);
      service::ServiceOptions opts = options;
      opts.backend = backend;
      auto svc = service::QueryService::Create(&dep.set, &dep.st, opts);
      Check(svc.status());
      std::vector<service::QueryOutcome> outcomes;
      auto report = service::RunOpenLoop(
          svc->get(), *workload,
          {.num_queries = kQueriesPerDoc,
           .seed = 7 + static_cast<uint64_t>(d)},
          &outcomes);
      Check(report.status());
      Check((*svc)->status());
      for (const service::QueryOutcome& o : outcomes) {
        (*answers)[d].push_back(o.answer ? 1 : 0);
      }
      *wall_seconds += report->makespan_seconds;
    }
  };

  auto serve_shared = [&](const std::string& backend,
                          std::vector<std::vector<char>>* answers,
                          double* wall_seconds) {
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
                ->Open(doc_name(d), std::move(dep.set),
                       std::move(*placement))
                .status());
    }
    auto svc = service::CatalogService::Create(cat->get(), options);
    Check(svc.status());
    // The same per-document query sequences as the isolated runs.
    std::vector<std::vector<service::QueryOutcome>> outcomes(kDocs);
    for (int d = 0; d < kDocs; ++d) {
      Rng draw(7 + static_cast<uint64_t>(d));
      for (size_t idx :
           workload->DrawIndices(kQueriesPerDoc, &draw)) {
        auto q = workload->Materialize(idx);
        Check(q.status());
        Check((*svc)
                  ->Submit(doc_name(d), std::move(*q), 0.0,
                           [&outcomes, d](const service::QueryOutcome& o) {
                             outcomes[d].push_back(o);
                           })
                  .status());
      }
    }
    const double makespan = (*svc)->Run();
    Check((*svc)->status());
    answers->assign(kDocs, {});
    for (int d = 0; d < kDocs; ++d) {
      for (const service::QueryOutcome& o : outcomes[d]) {
        (*answers)[d].push_back(o.answer ? 1 : 0);
      }
    }
    *wall_seconds = makespan;
  };

  // Sim oracle (also warms the page cache).
  std::vector<std::vector<char>> oracle;
  double sim_wall = 0.0;
  serve_isolated("sim", &oracle, &sim_wall);
  std::printf("sim oracle (virtual) : %.4f s summed makespan\n", sim_wall);

  std::vector<std::vector<char>> shared_sim;
  double shared_sim_wall = 0.0;
  serve_shared("sim", &shared_sim, &shared_sim_wall);
  if (shared_sim != oracle) {
    std::fprintf(stderr,
                 "FAIL: shared-sim answers diverged from the oracle\n");
    return 1;
  }

  const int total =
      static_cast<int>(kQueriesPerDoc) * kDocs;
  double isolated_wall = 1e30;
  double shared_wall = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::vector<char>> answers;
    double wall = 0.0;
    serve_isolated("threads:8", &answers, &wall);
    if (answers != oracle) {
      std::fprintf(stderr,
                   "FAIL: isolated threads answers diverged from sim\n");
      return 1;
    }
    if (wall < isolated_wall) isolated_wall = wall;
    serve_shared("threads:8", &answers, &wall);
    if (answers != oracle) {
      std::fprintf(stderr,
                   "FAIL: shared threads answers diverged from sim\n");
      return 1;
    }
    if (wall < shared_wall) shared_wall = wall;
  }

  const double isolated_qps = total / isolated_wall;
  const double shared_qps = total / shared_wall;
  const double speedup = shared_qps / isolated_qps;
  std::printf("%-26s %-12s %-14s\n", "configuration", "wall (s)",
              "agg q/s");
  std::printf("%-26s %-12.4f %-14.0f\n", "8x isolated threads:8",
              isolated_wall, isolated_qps);
  std::printf("%-26s %-12.4f %-14.0f\n", "shared threads:8 catalog",
              shared_wall, shared_qps);
  std::printf("\nshared/isolated aggregate throughput: %.2fx "
              "(gate: >= 1.5x)\n",
              speedup);

  JsonReport json("bench_x10_multidoc_service");
  json.Add("docs", kDocs);
  json.Add("queries_total", total);
  json.Add("isolated_wall_seconds", isolated_wall);
  json.Add("shared_wall_seconds", shared_wall);
  json.Add("isolated_qps", isolated_qps);
  json.Add("shared_qps", shared_qps);
  json.Add("speedup", speedup);
  json.Add("hardware_threads", hw);

  if (hw < 4) {
    std::printf("SKIPPED: host has %u hardware threads; the sharing "
                "gate needs >= 4 to be meaningful. Answers verified "
                "identical to the sim oracle in every configuration.\n",
                hw);
    return 0;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: expected >= 1.5x aggregate throughput from the "
                 "shared host, measured %.2fx\n",
                 speedup);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

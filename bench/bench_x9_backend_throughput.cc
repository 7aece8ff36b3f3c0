// X9 (acceptance bench): QueryService on the thread-pool backend.
//
// The point of ExecBackend: the *serving stack* — not a demo runner —
// exploits real parallelism. One QueryService per worker count serves
// the same burst of distinct queries (cache off, so every query does
// real site work) over a 16-site star deployment; per-site partial
// evaluation fans out across the pool while composition stays on the
// coordinator thread.
//
// Gate: >= 2x wall-clock speedup at 8 workers vs 1 worker. The gate
// needs hardware to scale on; hosts with < 4 hardware threads report
// the measurement and skip the enforcement (CI runs on >= 4).

#include <thread>

#include "bench_common.h"
#include "service/query_service.h"
#include "service/workload.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("X9", "backend throughput: QueryService on threads:N",
              config);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host has %u hardware threads\n\n", hw);

  Deployment d = MakeStar(16, config.total_bytes, config.seed);
  auto workload = service::Workload::Make(
      {.distinct_queries = 32, .min_qlist_size = 3, .zipf_s = 0.0});
  Check(workload.status());

  auto serve = [&](const std::string& backend, std::vector<char>* answers) {
    service::ServiceOptions options;
    options.backend = backend;
    options.cache_capacity = 0;  // every query does real site work
    service::QueryService svc(&d.set, &d.st, options);
    std::vector<service::QueryOutcome> outcomes;
    auto report = service::RunOpenLoop(
        &svc, *workload, {.num_queries = 32, .seed = 7}, &outcomes);
    Check(report.status());
    Check(svc.status());
    if (answers != nullptr) {
      answers->clear();
      for (const service::QueryOutcome& o : outcomes) {
        answers->push_back(o.answer ? 1 : 0);
      }
    }
    return report->makespan_seconds;
  };

  // Warm the page cache and report the simulated baseline for context.
  std::vector<char> sim_answers;
  const double sim_virtual = serve("sim", &sim_answers);
  std::printf("sim (virtual)     : %.4f s makespan\n", sim_virtual);

  std::printf("%-12s %-14s %-10s\n", "workers", "wall (s)", "speedup");
  double wall_1 = 0.0, wall_8 = 0.0;
  for (int workers : {1, 2, 4, 8}) {
    std::vector<char> answers;
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const double wall =
          serve("threads:" + std::to_string(workers), &answers);
      if (wall < best) best = wall;
    }
    if (answers != sim_answers) {
      std::fprintf(stderr, "FAIL: threads:%d answers diverged from sim\n",
                   workers);
      return 1;
    }
    if (workers == 1) wall_1 = best;
    if (workers == 8) wall_8 = best;
    std::printf("%-12d %-14.4f %-10.2fx\n", workers, best,
                wall_1 > 0.0 ? wall_1 / best : 1.0);
  }

  const double speedup = wall_8 > 0.0 ? wall_1 / wall_8 : 0.0;
  std::printf("\n8-worker speedup over 1 worker: %.2fx (gate: >= 2x)\n",
              speedup);
  JsonReport json("bench_x9_backend_throughput");
  json.Add("wall_1_worker_seconds", wall_1);
  json.Add("wall_8_workers_seconds", wall_8);
  json.Add("speedup", speedup);
  json.Add("hardware_threads", hw);
  if (hw < 4) {
    std::printf("SKIPPED: host has %u hardware threads; the parallelism "
                "gate needs >= 4 to be meaningful. Answers verified "
                "identical to the sim at every worker count.\n",
                hw);
    return 0;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: expected >= 2x wall-clock speedup at 8 workers, "
                 "measured %.2fx\n",
                 speedup);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}

// X11 (acceptance bench): QueryService on the multi-process site
// daemons ("proc:4") vs the in-process thread pool ("threads:4") vs
// the simulated baseline, on X6's workload: 256 zipf-skewed queries
// (16 distinct) over a star deployment, 64 in-flight, cache off so
// every query does real site work over real sockets.
//
// The point being measured is the transport tax: identical logical
// work (bit-identical answers, visits, and metered traffic — the
// backend-differential suite holds that elsewhere), with every
// cross-site parcel paying a length-prefixed frame over a Unix-domain
// socket plus the coordinator's poll loop. The bench reports wall
// clock and the proc transport counters (frames, retries, reconnects)
// and gates only on correctness plus a clean run (no retries or
// reconnects on a quiet localhost); wall-clock ratios are recorded in
// the JSON for the trajectory diff, not gated — socket scheduling on
// shared runners is too noisy.

#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/query_service.h"
#include "service/workload.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("X11", "process backend: QueryService on proc:4 daemons",
              config);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host has %u hardware threads\n\n", hw);

  Deployment d = MakeStar(8, config.total_bytes, config.seed);
  std::printf("%zu elements, %zu fragments, %d sites\n\n",
              d.set.TotalElements(), d.set.live_count(), d.st.num_sites());
  auto workload = service::Workload::Make(service::WorkloadSpec{
      .distinct_queries = 16, .min_qlist_size = 2, .zipf_s = 1.0});
  Check(workload.status());

  service::ClosedLoopOptions loop;
  loop.num_queries = 256;
  loop.concurrency = 64;
  loop.seed = config.seed;

  struct Served {
    double makespan = 0.0;
    double qps = 0.0;
    double p99_ms = 0.0;
    std::vector<char> answers;
    double frames = 0.0;
    double retries = 0.0;
    double reconnects = 0.0;
  };
  auto serve = [&](const std::string& backend) -> Served {
    service::ServiceOptions options;
    options.backend = backend;
    options.cache_capacity = 0;  // every query does real site work
    service::QueryService svc(&d.set, &d.st, options);
    std::vector<service::QueryOutcome> outcomes;
    auto report = service::RunClosedLoop(&svc, *workload, loop,
                                         /*indices_out=*/nullptr, &outcomes);
    Check(report.status());
    Check(svc.status());
    Served out;
    out.makespan = report->makespan_seconds;
    out.qps = report->throughput_qps;
    out.p99_ms = report->latency.Percentile(99) * 1e3;
    // Answers keyed by submission id (completion order may differ).
    out.answers.resize(loop.num_queries);
    for (const service::QueryOutcome& o : outcomes) {
      out.answers[o.query_id] = o.answer ? 1 : 0;
    }
    const obs::MetricsSnapshot snap = svc.SnapshotMetrics();
    out.frames = snap.GaugeValue("exec.proc.frames");
    out.retries = snap.GaugeValue("exec.proc.retries");
    out.reconnects = snap.GaugeValue("exec.proc.reconnects");
    return out;
  };

  const Served sim = serve("sim");
  std::printf("sim (virtual)   : %.4f s makespan\n\n", sim.makespan);

  std::printf("%-12s %-14s %-12s %-10s %-10s\n", "backend", "wall (s)",
              "qps", "p99 (ms)", "frames");
  Served threads, proc;
  for (const char* backend : {"threads:4", "proc:4"}) {
    Served best;
    for (int rep = 0; rep < 3; ++rep) {
      Served run = serve(backend);
      if (run.answers != sim.answers) {
        std::fprintf(stderr, "FAIL: %s answers diverged from sim\n",
                     backend);
        return 1;
      }
      if (rep == 0 || run.makespan < best.makespan) best = std::move(run);
    }
    std::printf("%-12s %-14.4f %-12.1f %-10.3f %-10.0f\n", backend,
                best.makespan, best.qps, best.p99_ms, best.frames);
    (std::string(backend) == "proc:4" ? proc : threads) = std::move(best);
  }

  const double tax =
      threads.makespan > 0.0 ? proc.makespan / threads.makespan : 0.0;
  std::printf("\nproc:4 transport tax over threads:4: %.2fx wall clock "
              "(%.0f frames, %.0f retries, %.0f reconnects)\n",
              tax, proc.frames, proc.retries, proc.reconnects);

  JsonReport json("bench_x11_process_backend");
  json.Add("sim_virtual_seconds", sim.makespan);
  json.Add("threads4_wall_seconds", threads.makespan);
  json.Add("proc4_wall_seconds", proc.makespan);
  json.Add("threads4_qps", threads.qps);
  json.Add("proc4_qps", proc.qps);
  json.Add("threads4_p99_ms", threads.p99_ms);
  json.Add("proc4_p99_ms", proc.p99_ms);
  json.Add("proc_over_threads_wall_ratio", tax);
  json.Add("proc_frames", proc.frames);
  json.Add("proc_retries", proc.retries);
  json.Add("proc_reconnects", proc.reconnects);
  json.Add("hardware_threads", hw);

  if (proc.frames <= 0.0) {
    std::fprintf(stderr,
                 "FAIL: proc:4 reported no frames — the workload never "
                 "touched the sockets\n");
    return 1;
  }
  // A quiet localhost run must need no reliability machinery: retries
  // or reconnects here mean lost frames or a crashed daemon.
  if (proc.retries > 0.0 || proc.reconnects > 0.0) {
    std::fprintf(stderr,
                 "FAIL: clean run used %.0f retries / %.0f reconnects\n",
                 proc.retries, proc.reconnects);
    return 1;
  }
  std::printf("answers: all %zu bit-identical to sim on both backends\n",
              static_cast<size_t>(loop.num_queries));
  std::printf("PASS\n");
  return 0;
}

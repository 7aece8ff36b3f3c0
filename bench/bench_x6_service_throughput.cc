// Experiment X6: QueryService throughput vs a sequential ParBoX loop.
//
// A zipf-skewed workload of 256 queries (16 distinct) over the FT1
// star corpus, served three ways:
//
//   sequential — one ParBoX Session::Execute per query, one at a time
//                (the seed's only serving story): total time = sum of
//                makespans.
//   batch-only — QueryService with the result cache disabled: per-site
//                batch rounds amortize visits, message latency and
//                duplicate evaluations across 64 in-flight queries.
//   batch+cache— the full service: repeated fingerprints answer at the
//                coordinator with zero site visits.
//
// Every service answer is checked bit-identical to the standalone
// ParBoX answer for the same query (the process exits 1 on any
// mismatch). The acceptance target is batched throughput >= 2x
// sequential at 64 concurrent in-flight queries; in practice the
// amortization lands far beyond that.

#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "service/workload.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Experiment X6",
              "QueryService throughput, 64 in-flight queries", config);

  Deployment d = MakeStar(8, config.total_bytes, config.seed);
  std::printf("%zu elements, %zu fragments, %d sites\n",
              d.set.TotalElements(), d.set.live_count(), d.st.num_sites());

  auto workload = service::Workload::Make(service::WorkloadSpec{
      .distinct_queries = 16, .min_qlist_size = 2, .zipf_s = 1.0});
  Check(workload.status());

  service::ClosedLoopOptions loop;
  loop.num_queries = 256;
  loop.concurrency = 64;
  loop.seed = config.seed;

  // ---- Standalone answers + per-query sequential cost ----
  core::Session session = OpenSession(d);
  std::vector<bool> expected;
  std::vector<double> makespans;
  for (size_t i = 0; i < workload->size(); ++i) {
    auto q = workload->Materialize(i);
    Check(q.status());
    core::PreparedQuery prepared = PrepareQuery(&session, std::move(*q));
    core::RunReport report = Exec(&session, prepared);
    expected.push_back(report.answer);
    makespans.push_back(report.makespan_seconds);
  }

  auto run_service = [&](size_t cache_capacity,
                         std::vector<size_t>* indices)
      -> service::ServiceReport {
    service::ServiceOptions options;
    options.cache_capacity = cache_capacity;
    service::QueryService svc(&d.set, &d.st, options);
    std::vector<service::QueryOutcome> outcomes;
    auto report =
        service::RunClosedLoop(&svc, *workload, loop, indices, &outcomes);
    Check(report.status());
    // Bit-identical answers per submission, or the bench fails.
    for (const auto& outcome : outcomes) {
      size_t index = (*indices)[outcome.query_id];
      if (outcome.answer != expected[index]) {
        std::fprintf(stderr,
                     "ANSWER MISMATCH: submission %llu (portfolio %zu)\n",
                     static_cast<unsigned long long>(outcome.query_id),
                     index);
        std::exit(1);
      }
    }
    return *report;
  };

  std::vector<size_t> indices;
  service::ServiceReport full =
      run_service(service::ServiceOptions().cache_capacity, &indices);
  std::vector<size_t> indices_nocache;
  service::ServiceReport batch_only =
      run_service(/*cache_capacity=*/0, &indices_nocache);

  double sequential_seconds = 0.0;
  for (size_t index : indices) sequential_seconds += makespans[index];
  const double n = static_cast<double>(loop.num_queries);
  const double seq_qps = n / sequential_seconds;

  std::printf("\n%-14s %-12s %-12s %-10s %-10s %-10s\n", "mode",
              "time (s)", "qps", "p95 (ms)", "visits", "net KB");
  std::printf("%-14s %-12.4f %-12.1f %-10s %-10s %-10s\n", "sequential",
              sequential_seconds, seq_qps, "-", "-", "-");
  auto row = [&](const char* name, const service::ServiceReport& r) {
    std::printf("%-14s %-12.4f %-12.1f %-10.3f %-10llu %-10.1f\n", name,
                r.makespan_seconds, r.throughput_qps,
                r.latency.Percentile(95) * 1e3,
                static_cast<unsigned long long>(r.total_visits),
                r.network_bytes / 1024.0);
  };
  row("batch-only", batch_only);
  row("batch+cache", full);
  std::printf("\n%s\n", full.ToString().c_str());

  // ---- Tracing overhead gate (wall clock, best of 3) ----
  //
  // The observability layer must be structurally free when absent and
  // near-free when attached-but-disabled: with no tracer the session
  // never installs the TracingBackend decorator, and a disabled tracer
  // early-outs before touching any parcel. Gate: the disabled pass
  // stays within 3% of the no-tracer baseline (plus a 20 ms absolute
  // floor so a fast run is not failed on scheduler jitter alone).
  auto time_full_service = [&](obs::Tracer* tracer) -> double {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      service::ServiceOptions options;
      options.tracer = tracer;
      service::QueryService svc(&d.set, &d.st, options);
      const auto t0 = std::chrono::steady_clock::now();
      Check(service::RunClosedLoop(&svc, *workload, loop).status());
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best,
                      std::chrono::duration<double>(t1 - t0).count());
      if (tracer != nullptr) tracer->Reset();
    }
    return best;
  };
  const double wall_base = time_full_service(nullptr);
  obs::Tracer overhead_tracer;
  overhead_tracer.set_enabled(false);
  const double wall_off = time_full_service(&overhead_tracer);
  overhead_tracer.set_enabled(true);
  const double wall_on = time_full_service(&overhead_tracer);
  const double off_overhead = wall_base > 0.0
                                  ? wall_off / wall_base - 1.0
                                  : 0.0;
  const double on_overhead = wall_base > 0.0
                                 ? wall_on / wall_base - 1.0
                                 : 0.0;
  std::printf("\ntracing wall clock (best of 3): none %.4fs, "
              "disabled %.4fs (%+.1f%%), enabled %.4fs (%+.1f%%)\n",
              wall_base, wall_off, off_overhead * 1e2, wall_on,
              on_overhead * 1e2);

  const double speedup_batch = batch_only.throughput_qps / seq_qps;
  const double speedup_full = full.throughput_qps / seq_qps;
  JsonReport json("bench_x6_service_throughput");
  json.Add("sequential_qps", seq_qps);
  json.Add("batch_only_qps", batch_only.throughput_qps);
  json.Add("batch_cache_qps", full.throughput_qps);
  json.Add("speedup_batch", speedup_batch);
  json.Add("speedup_full", speedup_full);
  json.Add("tracing_off_overhead", off_overhead);
  json.Add("tracing_on_overhead", on_overhead);
  std::printf("\nspeedup vs sequential: batch-only %.1fx, batch+cache "
              "%.1fx (target >= 2x)\n",
              speedup_batch, speedup_full);
  if (speedup_batch < 2.0 || speedup_full < 2.0) {
    std::fprintf(stderr, "FAILED: batched service below 2x sequential\n");
    return 1;
  }
  if (wall_off > wall_base * 1.03 + 0.02) {
    std::fprintf(stderr,
                 "FAILED: tracing-disabled run %.4fs exceeds 3%% over "
                 "the no-tracer baseline %.4fs\n",
                 wall_off, wall_base);
    return 1;
  }
  std::printf("answers: all %zu bit-identical to standalone ParBoX\n",
              static_cast<size_t>(n));
  return 0;
}

// X12 (scale + chaos bench): QueryService over a million-node,
// 10'000-fragment XMark star on the proc:2 site daemons, serving a
// closed loop of cache-off marker queries while the environment
// misbehaves — injected network faults (drops, delays, duplicates via
// PARBOX_NET_FAULTS) plus one daemon SIGKILL mid-stream. The quiet
// sim run of the identical query sequence is the oracle: the bench
// FAILS unless every answer is bit-identical, the kill actually bumped
// a recovery epoch, and the fault injector actually fired.
//
// What the numbers mean: wall clock and p99 here price the paper's
// exactness guarantee under scale *and* chaos — partial evaluation
// answers only depend on the data, so the storm may cost time (retry
// backoff, re-shipping the dead daemon's fragments) but never
// correctness. Wall-clock ratios are recorded in the JSON for the
// trajectory diff, not gated — fault timing on shared runners is too
// noisy to threshold.
//
// Scale knobs: PARBOX_BENCH_SITES (default 10'050 sites of ~100 nodes
// each, the >=1M-node / >=10k-fragment chaos corpus) and the usual
// PARBOX_BENCH_SEED.

#include <sys/types.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/process_backend.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "xml/dom.h"
#include "xpath/normalize.h"

int main() {
  using namespace parbox;
  using namespace parbox::bench;
  BenchConfig config = BenchConfig::FromEnv();
  int num_sites = 10050;
  if (const char* sites = std::getenv("PARBOX_BENCH_SITES")) {
    num_sites = std::atoi(sites);
  }
  PrintHeader("X12", "scale + chaos: 1M-node corpus under a fault storm",
              config);

  xml::Document doc = xmark::GenerateScaledStarDocument(
      num_sites, /*nodes_per_site=*/100, config.seed);
  const size_t total_nodes = xml::CountNodes(doc.root());
  auto set = frag::FragmentSet::FromDocument(std::move(doc));
  Check(set.status());
  Check(frag::SplitAtAllLabeled(&*set, "site").status());
  auto st = frag::SourceTree::Create(*set, frag::AssignRoundRobin(*set, 16));
  Check(st.status());
  std::printf("%zu nodes, %zu fragments, %d logical sites\n\n", total_nodes,
              set->live_count(), st->num_sites());

  // Cache-off marker queries: every submission pays a full round over
  // every logical site, so the storm has a hot path to hit.
  const std::vector<std::string> pool = {
      "[//site[marker = \"m3\"]]",
      "[//site[marker = \"m" + std::to_string(num_sites - 1) + "\"]]",
      "[//person[creditcard]]",
      "[//open_auction[bidder]]",
      "[not(//site[marker = \"nope\"])]",
      "[//item[payment = \"Creditcard\"] and //category[name]]",
  };
  constexpr size_t kQueries = 48;
  constexpr int kConcurrency = 16;
  auto make_query = [&](size_t i) { return xpath::CompileQuery(pool[i % pool.size()]); };

  struct Served {
    double makespan = 0.0;
    double qps = 0.0;
    double p99_ms = 0.0;
    std::vector<char> answers;
    double retries = 0.0;
    double reconnects = 0.0;
    double faults = 0.0;
    uint64_t epoch_bumps = 0;
  };
  auto serve = [&](const std::string& backend, bool storm) -> Served {
    if (storm) {
      setenv("PARBOX_NET_FAULTS", std::to_string(config.seed).c_str(), 1);
    }
    service::ServiceOptions options;
    options.backend = backend;
    options.cache_capacity = 0;
    service::QueryService svc(&*set, &*st, options);
    if (storm) unsetenv("PARBOX_NET_FAULTS");

    // SIGKILL one daemon once the stream is in flight; detection,
    // respawn, and fragment re-shipping all happen under load.
    std::thread killer;
    auto* proc = dynamic_cast<exec::ProcessBackend*>(&svc.backend());
    if (storm && proc != nullptr) {
      const pid_t victim = proc->daemon_pid(0);
      killer = std::thread([victim] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        ::kill(victim, SIGKILL);
      });
    }
    std::vector<service::QueryOutcome> outcomes;
    auto report = service::RunClosedLoopWith(&svc, make_query, kQueries,
                                             kConcurrency,
                                             /*think_seconds=*/0.0, &outcomes);
    if (killer.joinable()) killer.join();
    Check(report.status());
    Check(svc.status());

    Served out;
    out.makespan = report->makespan_seconds;
    out.qps = report->throughput_qps;
    out.p99_ms = report->latency.Percentile(99) * 1e3;
    out.answers.resize(kQueries);
    for (const service::QueryOutcome& o : outcomes) {
      out.answers[o.query_id] = o.answer ? 1 : 0;
    }
    const obs::MetricsSnapshot snap = svc.SnapshotMetrics();
    out.retries = snap.GaugeValue("exec.proc.retries");
    out.reconnects = snap.GaugeValue("exec.proc.reconnects");
    out.faults = snap.GaugeValue("exec.proc.faults");
    if (proc != nullptr) {
      for (frag::SiteId s = 0; s < st->num_sites(); ++s) {
        out.epoch_bumps += proc->RecoveryEpoch(s);
      }
    }
    return out;
  };

  const Served calm = serve("sim", /*storm=*/false);
  std::printf("sim (quiet oracle): %.4f s makespan\n\n", calm.makespan);

  const Served stormy = serve("proc:2", /*storm=*/true);
  std::printf("%-18s %-12s %-12s %-10s\n", "backend", "wall (s)", "qps",
              "p99 (ms)");
  std::printf("%-18s %-12.4f %-12.1f %-10.3f\n", "proc:2 + storm",
              stormy.makespan, stormy.qps, stormy.p99_ms);
  std::printf("\nstorm: %.0f faults injected, %.0f retries, %.0f "
              "reconnects, %llu recovery epoch bumps\n",
              stormy.faults, stormy.retries, stormy.reconnects,
              static_cast<unsigned long long>(stormy.epoch_bumps));

  JsonReport json("bench_x12_scale_chaos");
  json.Add("corpus_nodes", static_cast<double>(total_nodes));
  json.Add("corpus_fragments", static_cast<double>(set->live_count()));
  json.Add("sim_quiet_seconds", calm.makespan);
  json.Add("proc2_storm_wall_seconds", stormy.makespan);
  json.Add("proc2_storm_qps", stormy.qps);
  json.Add("proc2_storm_p99_ms", stormy.p99_ms);
  json.Add("storm_over_sim_wall_ratio",
           calm.makespan > 0.0 ? stormy.makespan / calm.makespan : 0.0);
  json.Add("storm_faults", stormy.faults);
  json.Add("storm_retries", stormy.retries);
  json.Add("storm_reconnects", stormy.reconnects);
  json.Add("storm_epoch_bumps", static_cast<double>(stormy.epoch_bumps));

  if (stormy.answers != calm.answers) {
    std::fprintf(stderr,
                 "FAIL: storm answers diverged from the quiet sim run\n");
    return 1;
  }
  if (total_nodes < 1000000u || set->live_count() < 10000u) {
    std::fprintf(stderr, "FAIL: corpus below the 1M-node / 10k-fragment "
                         "floor (%zu nodes, %zu fragments)\n",
                 total_nodes, set->live_count());
    return 1;
  }
  if (stormy.epoch_bumps < 1) {
    std::fprintf(stderr,
                 "FAIL: the SIGKILL never surfaced as a recovery epoch\n");
    return 1;
  }
  if (stormy.faults <= 0.0) {
    std::fprintf(stderr, "FAIL: the fault injector never fired\n");
    return 1;
  }
  std::printf("answers: all %zu bit-identical to the quiet sim oracle\n",
              kQueries);
  std::printf("PASS\n");
  return 0;
}

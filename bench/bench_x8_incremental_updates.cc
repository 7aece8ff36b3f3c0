// Experiment X8: incremental update pipeline — the acceptance bench
// for Session::Apply / ExecuteIncremental (fragment/delta.h).
//
// The live-update serving pattern: a long-lived deployment absorbs a
// stream of small content deltas, and the same prepared query must be
// re-answered after each. Two ways to pay for it, measured in host
// wall-clock time per re-answer:
//
//   full re-run   — Session::Execute (ParBoX): every fragment is
//                   re-partially-evaluated from scratch, every site
//                   visited, the whole system re-solved.
//   incremental   — Session::ExecuteIncremental: only the fragments
//                   dirtied since the last run are re-evaluated (one
//                   "update" message to each dirty site), every clean
//                   fragment's retained triplet is reused verbatim,
//                   and the coordinator re-solves.
//
// Each iteration dirties 2 of the deployment's fragments (<10% of
// card(F)); answers are asserted identical between the two paths on
// every iteration. Gate: incremental re-execution must be >= 3x
// faster on mean wall time, or the process exits 1.

#include <algorithm>
#include <chrono>
#include <string>

#include "bench_common.h"
#include "fragment/delta.h"
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
  PrintHeader("Experiment X8",
              "incremental delta re-execution vs full re-run "
              "(host wall time)",
              config);

  // Pinned corpus (like X7): the gate contrasts per-update work that
  // scales with |T| (full re-run) against work that scales with the
  // dirty fragments only (incremental). 1 MiB over 32 fragments keeps
  // a full pass measurable without making the suite crawl; the dirty
  // fraction, not the corpus, is the experiment's variable.
  const uint64_t corpus_bytes = std::min<uint64_t>(
      config.total_bytes, 1u << 20);
  Deployment d = MakeStar(32, corpus_bytes, config.seed);
  const std::string query_text =
      "[//item[payment = \"Creditcard\" and shipping] and "
      "//person[creditcard and profile/interest] and "
      "not(//category[name = \"none\"])]";
  const int kWarmup = 8;
  const int kIters = 48;
  const size_t kDirtyPerIter = 2;

  std::printf("%zu elements, %zu fragments, %d sites\nquery: %s\n",
              d.set.TotalElements(), d.set.live_count(), d.st.num_sites(),
              query_text.c_str());
  const double dirty_fraction =
      static_cast<double>(kDirtyPerIter) /
      static_cast<double>(d.set.live_count());
  std::printf("dirty per iteration: %zu/%zu fragments (%.1f%%)\n",
              kDirtyPerIter, d.set.live_count(), 100.0 * dirty_fraction);
  if (dirty_fraction >= 0.10) {
    std::fprintf(stderr, "FAILED: dirty fraction must stay below 10%%\n");
    return 1;
  }

  core::Session session = OpenMutableSession(&d);
  core::PreparedQuery prepared = [&] {
    auto p = session.Prepare(query_text);
    Check(p.status());
    return std::move(*p);
  }();

  // Seed the incremental state (full pass, retained triplets).
  {
    auto seeded = session.ExecuteIncremental(prepared);
    Check(seeded.status());
  }

  // Non-root fragments to dirty, round-robin.
  std::vector<frag::FragmentId> targets;
  for (frag::FragmentId f : d.set.live_ids()) {
    if (f != d.set.root_fragment()) targets.push_back(f);
  }

  obs::Histogram full_wall, inc_wall;
  uint64_t inc_visits_max = 0;
  size_t next_target = 0;
  for (int i = -kWarmup; i < kIters; ++i) {
    // Dirty kDirtyPerIter fragments with small content deltas.
    for (size_t u = 0; u < kDirtyPerIter; ++u) {
      const frag::FragmentId f = targets[next_target];
      next_target = (next_target + 1) % targets.size();
      auto applied = session.Apply(frag::Delta::InsertSubtree(
          f, d.set.fragment(f).root, "x8upd", "tick"));
      Check(applied.status());
    }

    // Full re-run: every fragment, every site, from scratch.
    const double full_start = NowSeconds();
    core::RunReport full = Exec(&session, prepared);
    const double full_elapsed = NowSeconds() - full_start;

    // Incremental: only the two dirty fragments.
    const double inc_start = NowSeconds();
    auto inc = session.ExecuteIncremental(prepared);
    Check(inc.status());
    const double inc_elapsed = NowSeconds() - inc_start;

    if (inc->answer != full.answer) {
      std::fprintf(stderr, "RESULT DRIFT: incremental answer differs "
                           "from the full re-run (iteration %d)\n", i);
      return 1;
    }
    if (i >= 0) {
      full_wall.Add(full_elapsed);
      inc_wall.Add(inc_elapsed);
      inc_visits_max = std::max(inc_visits_max, inc->total_visits());
    }
  }

  std::printf("\n%-14s %s\n", "full re-run",
              full_wall.Summary("us", 1e6).c_str());
  std::printf("%-14s %s\n", "incremental",
              inc_wall.Summary("us", 1e6).c_str());
  std::printf("incremental site visits per update: max %llu "
              "(dirty sites only; full re-run visits all %zu)\n",
              static_cast<unsigned long long>(inc_visits_max),
              session.plan()->site_fragments.size());

  if (inc_visits_max > kDirtyPerIter) {
    std::fprintf(stderr,
                 "FAILED: incremental run visited more sites than it "
                 "had dirty fragments\n");
    return 1;
  }

  const double speedup_mean = full_wall.mean() / inc_wall.mean();
  const double speedup_p50 =
      full_wall.Percentile(50) / inc_wall.Percentile(50);
  std::printf("\nspeedup: mean %.2fx, p50 %.2fx (target >= 3x mean at "
              "<10%% dirty)\n",
              speedup_mean, speedup_p50);
  JsonReport json("bench_x8_incremental_updates");
  json.Add("full_rerun_mean_seconds", full_wall.mean());
  json.Add("incremental_mean_seconds", inc_wall.mean());
  json.Add("speedup_mean", speedup_mean);
  json.Add("speedup_p50", speedup_p50);
  if (speedup_mean < 3.0) {
    std::fprintf(stderr,
                 "FAILED: incremental re-execution below 3x full re-run\n");
    return 1;
  }
  std::printf("answers: all %d iterations bit-identical to the full "
              "re-run\n", kIters);
  return 0;
}

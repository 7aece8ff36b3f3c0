// Seeded chaos-scenario driver for the scale suite.
//
// One ChaosConfig + seed deterministically yields a ChaosSchedule — a
// phased script of query submissions, content deltas, placement moves,
// rebalances, and daemon kills over two catalog documents ("main" at
// the scale under test, "ctl" as the meter-separability control). The
// same schedule executes in two modes:
//
//   * chaos run  — cfg.inject=true on a real backend (typically
//     "proc:N" under PARBOX_NET_FAULTS): moves, rebalances, and
//     SIGKILL/respawn storms interleave with the query stream, and the
//     harness asserts the invariants inline (exact per-document
//     "migrate" metering, recovery re-ships only the dead daemon's
//     fragments, cached answers never stale vs a fresh evaluation);
//   * oracle run — cfg.inject=false on the deterministic sim: the same
//     queries and the same deltas, quiescent.
//
// The differential contract (the paper's Sec. 4/5 claim, weaponized):
// every answer bit in the chaos run's stream equals the oracle's.
// Answers are recorded by submission slot, not completion order, so
// the comparison is schedule-aligned under any interleaving.
//
// Deltas only land at phase boundaries (quiescent points), which is
// what makes the two runs comparable query-by-query; moves, kills and
// network faults are answer-invariant and run mid-stream. Kill phases
// carry no deltas, so the document is frozen from the kill through the
// recovery re-ship and the meter check is byte-exact.
//
// Replaying a failing seed: every assertion is SCOPED_TRACE-tagged
// with the seed and phase; rerun just that seed by passing it to
// ExecuteChaosRun in a one-off test (see DESIGN.md, "Chaos suite").

#ifndef PARBOX_TESTS_CHAOS_HARNESS_H_
#define PARBOX_TESTS_CHAOS_HARNESS_H_

#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/process_backend.h"
#include "fragment/fragment.h"
#include "fragment/placement.h"
#include "fragment/strategies.h"
#include "service/catalog_service.h"
#include "testutil.h"
#include "xmark/generator.h"
#include "xpath/normalize.h"

namespace parbox::chaostest {

// ---- Configuration -------------------------------------------------------

struct ChaosConfig {
  uint64_t seed = 1;
  /// Catalog substrate spec ("sim", "threads:N", "proc:N").
  std::string backend = "sim";
  /// Run the chaos actions (moves/rebalances/kills). The oracle run
  /// executes the same schedule with this off.
  bool inject = false;
  /// Wrap catalog construction in PARBOX_NET_FAULTS/_TIMEOUT_MS (proc
  /// backends only; both are read at construction).
  bool net_faults = false;

  // Corpus shape. The main document is main_sites * ~nodes_per_site
  // DOM nodes in main_sites+1 fragments (one split per <site>).
  int main_sites = 40;
  int control_sites = 8;
  uint64_t nodes_per_site = 60;
  int main_placement_sites = 8;
  int control_placement_sites = 4;

  // Schedule shape.
  int phases = 4;
  int queries_per_phase = 4;  ///< per document
  int deltas_per_phase = 2;   ///< per document; kill phases get none
};

// ---- Schedule ------------------------------------------------------------

/// Queries all runs draw from: XMark vocabulary, a mix of satisfied
/// (marker/creditcard/bidder) and document-dependent predicates so
/// both answers occur and deltas can flip them.
inline const std::vector<std::string>& QueryPool() {
  static const std::vector<std::string> pool = {
      "[//site[marker = \"m3\"]]",
      "[//person[creditcard]]",
      "[//open_auction[bidder]]",
      "[//item[payment = \"Creditcard\"]]",
      "[//closed_auction[price] and //category[name]]",
      "[//person[profile[interest]]]",
      "[not(//site[marker = \"nope\"])]",
      "[//item[quantity = \"7\"]]",
  };
  return pool;
}

struct ChaosMove {
  int doc = 0;             ///< 0 = main, 1 = ctl
  uint64_t frag_pick = 0;  ///< index into live_ids(), mod its size
  int site = 0;            ///< destination (mod the doc's site count)
};

struct ChaosPhase {
  std::vector<std::vector<int>> queries;  ///< [doc] -> pool indices
  /// Submitted (and drained) after the wave and the invariant checks —
  /// post-recovery differential traffic, present in every run.
  std::vector<std::vector<int>> probes;
  std::vector<std::vector<uint64_t>> delta_seeds;  ///< [doc] -> seeds
  std::vector<ChaosMove> moves;
  int rebalance_doc = -1;  ///< -1 = none
  int kill_daemon = -1;    ///< -1 = none; else daemon index to SIGKILL
  /// Per doc: pool index re-asked after the deltas and compared to a
  /// fresh standalone evaluation (-1 = skip). The cache-staleness
  /// oracle.
  std::vector<int> stale_check;
};

struct ChaosSchedule {
  std::vector<ChaosPhase> phases;
};

inline ChaosSchedule MakeSchedule(const ChaosConfig& cfg) {
  constexpr int kDocs = 2;
  Rng rng(cfg.seed);
  const size_t pool = QueryPool().size();
  ChaosSchedule schedule;
  for (int p = 0; p < cfg.phases; ++p) {
    ChaosPhase phase;
    phase.queries.resize(kDocs);
    phase.probes.resize(kDocs);
    phase.delta_seeds.resize(kDocs);
    phase.stale_check.assign(kDocs, -1);
    for (int d = 0; d < kDocs; ++d) {
      for (int q = 0; q < cfg.queries_per_phase; ++q) {
        phase.queries[d].push_back(static_cast<int>(rng.Uniform(pool)));
      }
      phase.probes[d].push_back(static_cast<int>(rng.Uniform(pool)));
    }
    // Phase 0 warms the caches; later phases rotate one chaos action.
    const int action = p == 0 ? -1 : static_cast<int>(rng.Uniform(3));
    if (action == 0) {
      phase.kill_daemon = static_cast<int>(rng.Uniform(2));
    } else if (action == 1) {
      const int n = 1 + static_cast<int>(rng.Uniform(2));
      for (int m = 0; m < n; ++m) {
        ChaosMove mv;
        mv.doc = static_cast<int>(rng.Uniform(kDocs));
        mv.frag_pick = rng.Next64();
        mv.site = static_cast<int>(rng.Uniform(static_cast<uint64_t>(
            mv.doc == 0 ? cfg.main_placement_sites
                        : cfg.control_placement_sites)));
        phase.moves.push_back(mv);
      }
    } else if (action == 2) {
      phase.rebalance_doc = static_cast<int>(rng.Uniform(kDocs));
    }
    // Content churn at the quiescent boundary — except in kill phases,
    // where the document must stay frozen between the kill and the
    // re-ship's byte accounting.
    if (phase.kill_daemon < 0) {
      for (int d = 0; d < kDocs; ++d) {
        for (int i = 0; i < cfg.deltas_per_phase; ++i) {
          phase.delta_seeds[d].push_back(rng.Next64());
        }
        phase.stale_check[d] = static_cast<int>(rng.Uniform(pool));
      }
    }
    schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

/// Canonical text form — the determinism test's comparison key.
inline std::string Describe(const ChaosSchedule& s) {
  std::string out;
  for (size_t p = 0; p < s.phases.size(); ++p) {
    const ChaosPhase& ph = s.phases[p];
    out += "phase " + std::to_string(p) + ":";
    for (size_t d = 0; d < ph.queries.size(); ++d) {
      out += " q" + std::to_string(d) + "=[";
      for (int q : ph.queries[d]) out += std::to_string(q) + ",";
      out += "] probe=[";
      for (int q : ph.probes[d]) out += std::to_string(q) + ",";
      out += "] deltas=[";
      for (uint64_t v : ph.delta_seeds[d]) out += std::to_string(v) + ",";
      out += "] stale=" + std::to_string(ph.stale_check[d]);
    }
    for (const ChaosMove& m : ph.moves) {
      out += " move(" + std::to_string(m.doc) + "," +
             std::to_string(m.frag_pick) + "," + std::to_string(m.site) +
             ")";
    }
    out += " rebalance=" + std::to_string(ph.rebalance_doc);
    out += " kill=" + std::to_string(ph.kill_daemon);
    out += "\n";
  }
  return out;
}

// ---- Execution -----------------------------------------------------------

struct RunResult {
  /// One entry per scheduled submission, in schedule order (identical
  /// across runs of the same schedule); the differential compares
  /// these. -1 = never completed.
  std::vector<int> answers;
  size_t main_fragments = 0;
  uint64_t main_nodes = 0;
  uint64_t cache_hits = 0;
  uint64_t faults_injected = 0;
  uint64_t retries = 0;
  int kills = 0;
  bool ok = false;  ///< construction + service status stayed clean
};

/// Execute `schedule` under `cfg`. Invariant violations fire gtest
/// failures inline; the caller checks result.ok and runs the cross-run
/// answer differential.
inline RunResult ExecuteChaosRun(const ChaosConfig& cfg,
                                 const ChaosSchedule& schedule) {
  RunResult result;
  const std::vector<std::string> names = {"main", "ctl"};

  if (cfg.net_faults) {
    setenv("PARBOX_NET_FAULTS", "1337", 1);
    setenv("PARBOX_NET_TIMEOUT_MS", "25", 1);
  }
  auto cat = catalog::Catalog::Create({.backend = cfg.backend});
  if (cfg.net_faults) {
    unsetenv("PARBOX_NET_FAULTS");
    unsetenv("PARBOX_NET_TIMEOUT_MS");
  }
  if (!cat.ok()) {
    ADD_FAILURE() << "catalog: " << cat.status().ToString();
    return result;
  }

  // Corpus: scaled XMark stars, one fragment per <site>.
  for (int d = 0; d < 2; ++d) {
    const int sites = d == 0 ? cfg.main_sites : cfg.control_sites;
    const int placement_sites = d == 0 ? cfg.main_placement_sites
                                       : cfg.control_placement_sites;
    xml::Document doc = xmark::GenerateScaledStarDocument(
        sites, cfg.nodes_per_site, cfg.seed + static_cast<uint64_t>(d));
    if (d == 0) result.main_nodes = xml::CountNodes(doc.root());
    auto set = frag::FragmentSet::FromDocument(std::move(doc));
    if (!set.ok()) {
      ADD_FAILURE() << set.status().ToString();
      return result;
    }
    auto split = frag::SplitAtAllLabeled(&*set, "site");
    if (!split.ok()) {
      ADD_FAILURE() << split.status().ToString();
      return result;
    }
    if (d == 0) result.main_fragments = set->live_count();
    auto placement = frag::Placement::Create(
        *set, frag::AssignRoundRobin(*set, placement_sites),
        placement_sites);
    if (!placement.ok()) {
      ADD_FAILURE() << placement.status().ToString();
      return result;
    }
    auto opened =
        (*cat)->Open(names[d], std::move(*set), std::move(*placement));
    if (!opened.ok()) {
      ADD_FAILURE() << opened.status().ToString();
      return result;
    }
  }

  service::ServiceOptions options;
  // Every admission is its own round: flush order (and with it the
  // recovery re-ship point) is schedule-determined, not clock-
  // determined, on every backend.
  options.max_batch_queries = 1;
  auto svc = service::CatalogService::Create(cat->get(), options);
  if (!svc.ok()) {
    ADD_FAILURE() << svc.status().ToString();
    return result;
  }

  auto* proc =
      dynamic_cast<exec::ProcessBackend*>(&(*cat)->host()->backend());

  catalog::Document* docs[2] = {(*cat)->Find("main"), (*cat)->Find("ctl")};
  service::QueryService* services[2] = {
      (*svc)->document_service("main"), (*svc)->document_service("ctl")};

  // Scheduled submissions record into the differential stream by slot
  // (NormQuery is move-only, so queries compile per submission).
  auto submit = [&](int d, const std::string& text) {
    auto q = xpath::CompileQuery(text);
    EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    if (!q.ok()) return;
    const size_t slot = result.answers.size();
    result.answers.push_back(-1);
    auto id = (*svc)->Submit(
        names[d], std::move(*q), services[d]->now(),
        [&result, slot](const service::QueryOutcome& o) {
          result.answers[slot] = o.answer ? 1 : 0;
        });
    EXPECT_TRUE(id.ok()) << id.status().ToString();
  };
  // Harness plumbing: force document `d` to flush a round NOW — a
  // guaranteed cache miss (phase-fresh predicate), so plan() runs
  // (and with it SyncRecovery's re-ship). Not part of the
  // differential stream.
  int flush_counter = 0;
  auto flush_doc = [&](int d) {
    auto q = xpath::CompileQuery("[//site[marker = \"flush" +
                                 std::to_string(flush_counter++) +
                                 "\"]]");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) return;
    auto id = (*svc)->Submit(names[d], std::move(*q),
                             services[d]->now(), nullptr);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    (*svc)->Run();
  };
  auto migrate_bytes = [&](int d) {
    return services[d]->backend().traffic().bytes_with_tag("migrate");
  };
  auto read_epochs = [&](int d) {
    std::vector<uint64_t> out;
    const auto st = docs[d]->source_tree();
    for (frag::SiteId s = 0; s < st->num_sites(); ++s) {
      out.push_back(services[d]->backend().RecoveryEpoch(s));
    }
    return out;
  };

  // Baseline: one flush per document seeds each session's recovery
  // bookkeeping and ships the initial plans before any chaos.
  flush_doc(0);
  flush_doc(1);
  std::vector<uint64_t> epoch_seen[2] = {read_epochs(0), read_epochs(1)};

  // Cumulative exact expectation for each document's "migrate" meter:
  // every Move/Rebalance adds the fragment's serialized bytes at move
  // time; every daemon respawn adds exactly the dead sites' live
  // fragments. Nothing else may ever land on that tag.
  uint64_t expected_migrate[2] = {0, 0};

  for (size_t p = 0; p < schedule.phases.size(); ++p) {
    const ChaosPhase& phase = schedule.phases[p];
    SCOPED_TRACE("seed " + std::to_string(cfg.seed) + " phase " +
                 std::to_string(p));

    // 1. Placement chaos (chaos run only; answers are invariant).
    if (cfg.inject) {
      for (const ChaosMove& mv : phase.moves) {
        const std::vector<frag::FragmentId> live =
            docs[mv.doc]->set().live_ids();
        const frag::FragmentId f = live[mv.frag_pick % live.size()];
        if (f == docs[mv.doc]->set().root_fragment() ||
            docs[mv.doc]->placement().site_of(f) == mv.site) {
          continue;  // pinned or a no-op: deterministic skip
        }
        const uint64_t bytes =
            docs[mv.doc]->set().FragmentSerializedBytes(f);
        auto from = (*svc)->Move(names[mv.doc], f, mv.site);
        EXPECT_TRUE(from.ok()) << from.status().ToString();
        if (from.ok()) expected_migrate[mv.doc] += bytes;
      }
      if (phase.rebalance_doc >= 0) {
        const int d = phase.rebalance_doc;
        std::map<frag::FragmentId, frag::SiteId> before;
        std::map<frag::FragmentId, uint64_t> bytes_of;
        for (frag::FragmentId f : docs[d]->set().live_ids()) {
          before[f] = docs[d]->placement().site_of(f);
          bytes_of[f] = docs[d]->set().FragmentSerializedBytes(f);
        }
        auto moved = (*svc)->Rebalance(names[d]);
        EXPECT_TRUE(moved.ok()) << moved.status().ToString();
        for (const auto& [f, site] : before) {
          if (docs[d]->placement().site_of(f) != site) {
            expected_migrate[d] += bytes_of[f];
          }
        }
      }
    }

    // 2. Daemon kill (chaos run on a proc backend only).
    const bool killing =
        cfg.inject && phase.kill_daemon >= 0 && proc != nullptr;
    if (killing) {
      const int daemon = phase.kill_daemon % proc->num_daemons();
      const pid_t pid = proc->daemon_pid(daemon);
      EXPECT_GT(pid, 0);
      if (pid > 0) {
        kill(pid, SIGKILL);
        ++result.kills;
      }
    }

    // 3. The phase's query wave. The last wave query per document is a
    // phase-fresh "storm" predicate — a guaranteed cache miss, so a
    // round (and, with a daemon dead, its timeout/respawn/retransmit
    // path) runs in every phase of every run. Answers must not notice.
    {
      const std::string storm =
          "[//site[marker = \"storm" + std::to_string(p) + "\"]]";
      for (int d = 0; d < 2; ++d) {
        for (int q : phase.queries[d]) {
          submit(d, QueryPool()[static_cast<size_t>(q)]);
        }
        submit(d, storm);
      }
    }
    (*svc)->Run();
    EXPECT_TRUE((*svc)->status().ok()) << (*svc)->status().ToString();

    // 4. Recovery accounting. A respawned daemon announced a fresh
    // boot nonce during the wave; every bumped site's live fragments
    // must re-ship — exactly once, at the owning document's next
    // plan(), which flush_doc forces. Loop until epochs are stable so
    // a respawn completing mid-check is still attributed exactly.
    bool bumped[2] = {false, false};
    if (cfg.inject && proc != nullptr) {
      for (int iter = 0;; ++iter) {
        EXPECT_LT(iter, 8) << "recovery epochs failed to stabilize";
        if (iter >= 8) break;
        bool changed = false;
        for (int d = 0; d < 2; ++d) {
          const auto st = docs[d]->source_tree();
          const std::vector<uint64_t> now = read_epochs(d);
          for (frag::SiteId s = 0; s < st->num_sites(); ++s) {
            if (now[static_cast<size_t>(s)] ==
                epoch_seen[d][static_cast<size_t>(s)]) {
              continue;
            }
            epoch_seen[d][static_cast<size_t>(s)] =
                now[static_cast<size_t>(s)];
            changed = true;
            bumped[d] = true;
            for (frag::FragmentId f : st->fragments_at(s)) {
              if (docs[d]->set().is_live(f)) {
                expected_migrate[d] +=
                    docs[d]->set().FragmentSerializedBytes(f);
              }
            }
          }
        }
        if (!changed) break;
        flush_doc(0);
        flush_doc(1);
      }
    }
    if (killing) {
      // The daemon holds sites of BOTH documents (namespaces
      // interleave over daemons), so both must observe the respawn.
      EXPECT_TRUE(bumped[0] && bumped[1])
          << "kill produced no recovery epoch bump (main=" << bumped[0]
          << " ctl=" << bumped[1] << ")";
    }

    // 5. The meters-separable invariant, exact per document: each
    // document's "migrate" tag carries precisely its own moves plus
    // its own recovery re-ships — byte-exact, no cross-document
    // bleed, nothing shipped twice.
    if (cfg.inject) {
      for (int d = 0; d < 2; ++d) {
        EXPECT_EQ(migrate_bytes(d), expected_migrate[d])
            << names[d] << ": migrate meter diverged";
      }
    }

    // 6. Post-recovery differential traffic.
    for (int d = 0; d < 2; ++d) {
      for (int q : phase.probes[d]) {
        submit(d, QueryPool()[static_cast<size_t>(q)]);
      }
    }
    (*svc)->Run();
    EXPECT_TRUE((*svc)->status().ok()) << (*svc)->status().ToString();

    // 7. Content churn at the quiescent boundary (both runs; the
    // deltas are regenerated per run from the seed against this run's
    // structurally identical set, so both runs mutate identically).
    for (int d = 0; d < 2; ++d) {
      for (uint64_t seed : phase.delta_seeds[d]) {
        Rng delta_rng(seed);
        frag::Delta delta =
            testutil::RandomDelta(docs[d]->mutable_set(), &delta_rng);
        auto applied = (*svc)->ApplyDelta(names[d], delta);
        EXPECT_TRUE(applied.ok()) << applied.status().ToString();
      }
    }
    (*svc)->Run();

    // 8. Cache-never-stale: after the churn, re-ask a cached query and
    // compare against a fresh standalone evaluation of the document as
    // it stands now.
    for (int d = 0; d < 2; ++d) {
      if (phase.stale_check[d] < 0) continue;
      const std::string& text =
          QueryPool()[static_cast<size_t>(phase.stale_check[d])];
      auto q = xpath::CompileQuery(text);
      EXPECT_TRUE(q.ok()) << q.status().ToString();
      if (!q.ok()) continue;
      auto fresh =
          testutil::Evaluate(docs[d]->set(), *docs[d]->source_tree(), *q);
      EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
      if (!fresh.ok()) continue;
      const size_t slot = result.answers.size();
      submit(d, text);
      (*svc)->Run();
      EXPECT_EQ(result.answers[slot], fresh->answer ? 1 : 0)
          << names[d] << ": served answer diverged from a fresh "
          << "evaluation (stale cache?)";
    }
  }

  EXPECT_TRUE((*svc)->status().ok()) << (*svc)->status().ToString();
  for (int a : result.answers) EXPECT_NE(a, -1) << "unanswered slot";
  for (int d = 0; d < 2; ++d) {
    result.cache_hits += services[d]->BuildReport().cache_hits;
  }
  if (proc != nullptr) {
    result.faults_injected = proc->faults_injected();
    result.retries = proc->retries();
  }
  result.ok = (*svc)->status().ok();
  return result;
}

}  // namespace parbox::chaostest

#endif  // PARBOX_TESTS_CHAOS_HARNESS_H_

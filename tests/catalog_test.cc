// Catalog + placement differential suite.
//
// The contract of the multi-document refactor: serving N documents on
// ONE shared substrate (catalog::Catalog + service::CatalogService)
// changes NOTHING per document — answers, visit counts, and wire
// bytes are bit-identical to N dedicated single-document services, on
// both the sim and the thread-pool backend ($PARBOX_BACKEND re-runs
// this whole suite under "threads"). And live fragment migration
// (Placement::Move) mid-stream changes no answer: cached entries keep
// serving, and only the moved fragments' retained state re-ships
// (visit counts bounded by the moved-fragment count).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/session.h"
#include "fragment/delta.h"
#include "fragment/placement.h"
#include "fragment/strategies.h"
#include "service/catalog_service.h"
#include "service/query_service.h"
#include "testutil.h"
#include "xmark/generator.h"
#include "xpath/normalize.h"

namespace parbox {
namespace {

using catalog::Catalog;
using catalog::CatalogOptions;
using catalog::Document;
using service::CatalogService;
using service::QueryOutcome;
using service::QueryService;
using service::ServiceOptions;
using service::ServiceReport;

/// A deterministic random deployment: the same seed always yields the
/// same document, fragmentation, and placement (one site per
/// fragment — the most adversarial placement), so the dedicated and
/// catalog sides of a differential get identical copies.
struct Deployment {
  frag::FragmentSet set;
  frag::Placement placement;
};

Deployment MakeDeployment(uint64_t seed, int max_elements, int splits) {
  Rng rng(seed);
  xml::Document doc = xmark::GenerateRandomSmallDocument(max_elements, &rng);
  auto set = frag::FragmentSet::FromDocument(std::move(doc));
  EXPECT_TRUE(set.ok());
  EXPECT_TRUE(frag::RandomSplits(&*set, splits, &rng).ok());
  auto placement = frag::Placement::Create(
      *set, frag::AssignOneSitePerFragment(*set));
  EXPECT_TRUE(placement.ok()) << placement.status().ToString();
  return Deployment{std::move(*set), std::move(*placement)};
}

/// `count` distinct random queries, deterministic per seed.
std::vector<xpath::NormQuery> MakeQueries(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<xpath::NormQuery> out;
  std::vector<xpath::QueryFingerprint> fps;
  while (out.size() < static_cast<size_t>(count)) {
    auto ast = testutil::RandomQual(&rng, 3);
    xpath::NormQuery q = xpath::Normalize(*ast);
    const xpath::QueryFingerprint fp = xpath::FingerprintQuery(q);
    bool dup = false;
    for (const auto& seen : fps) dup = dup || seen == fp;
    if (dup) continue;  // distinct queries: admissions never dedup
    fps.push_back(fp);
    out.push_back(std::move(q));
  }
  return out;
}

// ---- The differential: catalog vs dedicated ----------------------------

// Distinct queries, one query per round (every admission flushes), so
// the per-document figures are deterministic on BOTH backends; the
// catalog side must reproduce the dedicated side's answers, visits,
// and bytes exactly.
TEST(CatalogDifferentialTest, MultiDocServiceMatchesDedicatedServices) {
  const uint64_t kSeeds[] = {21, 22, 23};
  const int kQueries = 6;

  ServiceOptions options;
  options.max_batch_queries = 1;

  // Dedicated single-document services, one substrate each.
  std::vector<std::vector<bool>> dedicated_answers;
  std::vector<std::vector<uint64_t>> dedicated_visits;
  std::vector<uint64_t> dedicated_bytes;
  std::vector<uint64_t> dedicated_messages;
  std::vector<std::map<std::string, uint64_t>> dedicated_by_tag;
  for (uint64_t seed : kSeeds) {
    Deployment d = MakeDeployment(seed, 120, 5);
    auto st = d.placement.Snapshot(d.set);
    ASSERT_TRUE(st.ok());
    auto svc = QueryService::Create(&d.set, &*st, options);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();
    std::vector<QueryOutcome> outcomes;
    for (auto& q : MakeQueries(seed * 31, kQueries)) {
      ASSERT_TRUE((*svc)
                      ->Submit(std::move(q), 0.0,
                               testutil::RecordInto(&outcomes))
                      .ok());
    }
    (*svc)->Run();
    ASSERT_TRUE((*svc)->status().ok()) << (*svc)->status().ToString();
    std::vector<bool> answers(kQueries);
    for (const auto& o : outcomes) {
      answers[o.query_id] = o.answer;
    }
    dedicated_answers.push_back(std::move(answers));
    dedicated_visits.push_back((*svc)->backend().visits());
    const sim::TrafficStats& t = (*svc)->backend().traffic();
    dedicated_bytes.push_back(t.total_bytes());
    dedicated_messages.push_back(t.total_messages());
    dedicated_by_tag.push_back(t.bytes_by_tag());
  }

  // The same documents and queries on ONE catalog substrate.
  auto cat = Catalog::Create();
  ASSERT_TRUE(cat.ok()) << cat.status().ToString();
  for (uint64_t seed : kSeeds) {
    Deployment d = MakeDeployment(seed, 120, 5);
    ASSERT_TRUE((*cat)
                    ->Open("doc" + std::to_string(seed), std::move(d.set),
                           std::move(d.placement))
                    .ok());
  }
  auto svc = CatalogService::Create(cat->get(), options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  std::vector<std::vector<QueryOutcome>> outcomes(std::size(kSeeds));
  for (size_t di = 0; di < std::size(kSeeds); ++di) {
    for (auto& q : MakeQueries(kSeeds[di] * 31, kQueries)) {
      auto id = (*svc)->Submit("doc" + std::to_string(kSeeds[di]),
                               std::move(q), 0.0,
                               testutil::RecordInto(&outcomes[di]));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
  }
  (*svc)->Run();
  ASSERT_TRUE((*svc)->status().ok()) << (*svc)->status().ToString();

  for (size_t di = 0; di < std::size(kSeeds); ++di) {
    SCOPED_TRACE("document " + std::to_string(kSeeds[di]));
    const QueryService* qs =
        (*svc)->document_service("doc" + std::to_string(kSeeds[di]));
    ASSERT_NE(qs, nullptr);
    ASSERT_EQ(outcomes[di].size(), static_cast<size_t>(kQueries));
    std::vector<bool> answers(kQueries);
    for (const auto& o : outcomes[di]) {
      // Query ids are service-local (0..kQueries-1 in submit order).
      answers[o.query_id] = o.answer;
    }
    EXPECT_EQ(answers, dedicated_answers[di]);
    EXPECT_EQ(qs->backend().visits(), dedicated_visits[di]);
    const sim::TrafficStats& t = qs->backend().traffic();
    EXPECT_EQ(t.total_bytes(), dedicated_bytes[di]);
    EXPECT_EQ(t.total_messages(), dedicated_messages[di]);
    EXPECT_EQ(t.bytes_by_tag(), dedicated_by_tag[di]);
  }
}

// With batching windows, duplicate submissions, and the cache in play,
// the deterministic virtual clock still reproduces dedicated figures
// exactly (timing-sensitive, so sim only; the threads re-run of this
// suite covers the timing-free differential above).
TEST(CatalogDifferentialTest, BatchedAndCachedEquivalenceOnSim) {
  if (!testutil::DefaultBackendIsSim()) {
    GTEST_SKIP() << "batching windows are timing-dependent off the sim";
  }
  const uint64_t kSeeds[] = {31, 32};
  const int kQueries = 5;

  auto submit_all = [&](auto&& submit) {
    for (size_t di = 0; di < std::size(kSeeds); ++di) {
      // Each query twice (dedup/share) plus a delayed repeat (cache).
      for (int rep = 0; rep < 2; ++rep) {
        int qi = 0;
        for (auto& q : MakeQueries(kSeeds[di] * 77, kQueries)) {
          submit(di, std::move(q), 1e-5 * (qi++), rep);
        }
      }
      for (auto& q : MakeQueries(kSeeds[di] * 77, kQueries)) {
        submit(di, std::move(q), 0.1, 2);
      }
    }
  };

  std::vector<ServiceReport> dedicated;
  std::vector<std::vector<uint64_t>> dedicated_visits;
  std::vector<std::unique_ptr<QueryService>> keep_alive;
  std::vector<std::unique_ptr<Deployment>> deployments;
  std::vector<std::unique_ptr<frag::SourceTree>> trees;
  for (uint64_t seed : kSeeds) {
    auto d = std::make_unique<Deployment>(MakeDeployment(seed, 120, 5));
    auto st = d->placement.Snapshot(d->set);
    ASSERT_TRUE(st.ok());
    trees.push_back(std::make_unique<frag::SourceTree>(std::move(*st)));
    auto svc = QueryService::Create(&d->set, trees.back().get(), {});
    ASSERT_TRUE(svc.ok());
    keep_alive.push_back(std::move(*svc));
    deployments.push_back(std::move(d));
  }
  std::vector<std::vector<QueryOutcome>> dedicated_outcomes(
      std::size(kSeeds));
  submit_all([&](size_t di, xpath::NormQuery q, double at, int) {
    ASSERT_TRUE(keep_alive[di]
                    ->Submit(std::move(q), at,
                             testutil::RecordInto(&dedicated_outcomes[di]))
                    .ok());
  });
  for (auto& dsvc : keep_alive) {
    dsvc->Run();
    ASSERT_TRUE(dsvc->status().ok());
    dedicated.push_back(dsvc->BuildReport());
    dedicated_visits.push_back(dsvc->backend().visits());
  }

  auto cat = Catalog::Create();
  ASSERT_TRUE(cat.ok());
  for (uint64_t seed : kSeeds) {
    Deployment d = MakeDeployment(seed, 120, 5);
    ASSERT_TRUE((*cat)
                    ->Open(std::to_string(seed), std::move(d.set),
                           std::move(d.placement))
                    .ok());
  }
  auto svc = CatalogService::Create(cat->get());
  ASSERT_TRUE(svc.ok());
  std::vector<std::vector<QueryOutcome>> outcomes(std::size(kSeeds));
  submit_all([&](size_t di, xpath::NormQuery q, double at, int) {
    ASSERT_TRUE((*svc)
                    ->Submit(std::to_string(kSeeds[di]), std::move(q), at,
                             testutil::RecordInto(&outcomes[di]))
                    .ok());
  });
  (*svc)->Run();
  ASSERT_TRUE((*svc)->status().ok());

  for (size_t di = 0; di < std::size(kSeeds); ++di) {
    SCOPED_TRACE("document " + std::to_string(kSeeds[di]));
    const QueryService* qs =
        (*svc)->document_service(std::to_string(kSeeds[di]));
    ASSERT_NE(qs, nullptr);
    const ServiceReport r = qs->BuildReport();
    EXPECT_EQ(r.completed, dedicated[di].completed);
    EXPECT_EQ(r.cache_hits, dedicated[di].cache_hits);
    EXPECT_EQ(r.shared_evaluations, dedicated[di].shared_evaluations);
    EXPECT_EQ(r.unique_evaluations, dedicated[di].unique_evaluations);
    EXPECT_EQ(r.rounds, dedicated[di].rounds);
    EXPECT_EQ(r.network_bytes, dedicated[di].network_bytes);
    EXPECT_EQ(r.network_messages, dedicated[di].network_messages);
    EXPECT_EQ(qs->backend().visits(), dedicated_visits[di]);
    ASSERT_EQ(outcomes[di].size(), dedicated[di].completed);
    ASSERT_EQ(dedicated_outcomes[di].size(), dedicated[di].completed);
    for (size_t i = 0; i < outcomes[di].size(); ++i) {
      EXPECT_EQ(outcomes[di][i].query_id,
                dedicated_outcomes[di][i].query_id);
      EXPECT_EQ(outcomes[di][i].answer, dedicated_outcomes[di][i].answer);
    }
  }
}

// ---- Live migration -----------------------------------------------------

// Placement::Move mid-stream: no answer changes, cached entries keep
// serving, the fragment's content ships exactly once (the metered
// "migrate" message), and post-move evaluations agree with a fresh
// standalone run against the new snapshot.
TEST(CatalogMoveTest, MoveMidStreamChangesNoAnswerAndKeepsCache) {
  auto cat = Catalog::Create();
  ASSERT_TRUE(cat.ok());
  Deployment d = MakeDeployment(41, 150, 6);
  const size_t fragments = d.set.live_count();
  ASSERT_GE(fragments, 4u);
  auto opened =
      (*cat)->Open("live", std::move(d.set), std::move(d.placement));
  ASSERT_TRUE(opened.ok());
  Document* doc = *opened;

  auto svc = CatalogService::Create(cat->get());
  ASSERT_TRUE(svc.ok());
  QueryService* qs = (*svc)->document_service("live");
  ASSERT_NE(qs, nullptr);

  // Fill the cache.
  const int kQueries = 5;
  std::vector<QueryOutcome> outcomes;
  for (auto& q : MakeQueries(411, kQueries)) {
    ASSERT_TRUE((*svc)
                    ->Submit("live", std::move(q), 0.0,
                             testutil::RecordInto(&outcomes))
                    .ok());
  }
  (*svc)->Run();
  ASSERT_TRUE((*svc)->status().ok());
  std::vector<bool> before(kQueries);
  for (const auto& o : outcomes) before[o.query_id] = o.answer;
  const size_t cached = qs->cache_size();
  EXPECT_GT(cached, 0u);

  // Move a non-root fragment to another fragment's site.
  frag::FragmentId moved = frag::kNoFragment;
  for (frag::FragmentId f : doc->set().live_ids()) {
    if (f != doc->set().root_fragment()) {
      moved = f;
      break;
    }
  }
  ASSERT_NE(moved, frag::kNoFragment);
  const frag::SiteId old_site = doc->placement().site_of(moved);
  const frag::SiteId new_site =
      (old_site + 1) % doc->placement().num_sites();
  const uint64_t fragment_bytes =
      doc->set().FragmentSerializedBytes(moved);
  const uint64_t epoch_before = doc->placement().epoch();

  auto from = (*svc)->Move("live", moved, new_site);
  ASSERT_TRUE(from.ok()) << from.status().ToString();
  EXPECT_EQ(*from, old_site);
  EXPECT_EQ(doc->placement().epoch(), epoch_before + 1);
  EXPECT_EQ(doc->source_tree()->placement_epoch(), epoch_before + 1);
  EXPECT_EQ(doc->source_tree()->site_of(moved), new_site);
  (*svc)->Run();  // drain the migration transfer

  // The content shipped exactly once, metered under "migrate".
  EXPECT_EQ(qs->backend().traffic().bytes_with_tag("migrate"),
            fragment_bytes);
  EXPECT_EQ(qs->backend().traffic().messages_with_tag("migrate"), 1u);

  // A move is not an update: the cache keeps serving, same answers.
  EXPECT_EQ(qs->cache_size(), cached);
  for (auto& q : MakeQueries(411, kQueries)) {
    ASSERT_TRUE((*svc)
                    ->Submit("live", std::move(q), qs->now(),
                             testutil::RecordInto(&outcomes))
                    .ok());
  }
  (*svc)->Run();
  ASSERT_TRUE((*svc)->status().ok());
  ASSERT_EQ(outcomes.size(), static_cast<size_t>(2 * kQueries));
  for (size_t i = kQueries; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    EXPECT_TRUE(o.cache_hit) << "query " << o.query_id;
    EXPECT_EQ(o.answer, before[o.query_id % kQueries]);
  }

  // Fresh (uncached) evaluations against the moved placement agree
  // with standalone runs on the new snapshot.
  std::shared_ptr<const frag::SourceTree> st = doc->source_tree();
  for (auto& q : MakeQueries(997, 3)) {
    auto oracle = testutil::Evaluate(doc->set(), *st, q);
    ASSERT_TRUE(oracle.ok());
    bool got = false;
    ASSERT_TRUE((*svc)
                    ->Submit("live", std::move(q), qs->now(),
                             [&got](const service::QueryOutcome& o) {
                               got = o.answer;
                             })
                    .ok());
    (*svc)->Run();
    EXPECT_EQ(got, oracle->answer);
  }
}

// The session-level contract: after a Move, ExecuteIncremental
// re-ships ONLY the moved fragments' state — visits bounded by the
// moved-fragment count, one "update" message per affected site, and
// the answer unchanged.
TEST(CatalogMoveTest, IncrementalReshipsOnlyMovedFragments) {
  auto cat = Catalog::Create();
  ASSERT_TRUE(cat.ok());
  Deployment d = MakeDeployment(51, 150, 6);
  auto opened =
      (*cat)->Open("inc", std::move(d.set), std::move(d.placement));
  ASSERT_TRUE(opened.ok());
  Document* doc = *opened;

  auto session = doc->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto prepared = (*session)->Prepare("[//a[b] and //c]");
  ASSERT_TRUE(prepared.ok());

  // Seed pass.
  auto seed_run = (*session)->ExecuteIncremental(*prepared);
  ASSERT_TRUE(seed_run.ok()) << seed_run.status().ToString();
  EXPECT_EQ(seed_run->algorithm, "IncrementalParBoX[full]");

  // Move two non-root fragments onto the same (fresh) target site.
  std::vector<frag::FragmentId> moved;
  for (frag::FragmentId f : doc->set().live_ids()) {
    if (f != doc->set().root_fragment()) moved.push_back(f);
    if (moved.size() == 2) break;
  }
  ASSERT_EQ(moved.size(), 2u);
  const frag::SiteId target = doc->placement().site_of(moved[1]);
  ASSERT_TRUE(doc->Move(moved[0], target).ok());

  auto delta_run = (*session)->ExecuteIncremental(*prepared);
  ASSERT_TRUE(delta_run.ok()) << delta_run.status().ToString();
  EXPECT_EQ(delta_run->algorithm, "IncrementalParBoX[delta]");
  EXPECT_EQ(delta_run->answer, seed_run->answer);
  // Only the moved fragment's (new) site is visited.
  EXPECT_LE(delta_run->total_visits(), 1u);
  EXPECT_GT(delta_run->stats.CounterValue("net.update.bytes"), 0u);

  // Both fragments moved at once: still bounded by the sites holding
  // the moved fragments.
  const frag::SiteId target2 = doc->placement().site_of(moved[0]);
  ASSERT_TRUE(doc->Move(moved[0], (target2 + 1) %
                                      doc->placement().num_sites())
                  .ok());
  ASSERT_TRUE(doc->Move(moved[1], (target + 1) %
                                      doc->placement().num_sites())
                  .ok());
  auto delta_run2 = (*session)->ExecuteIncremental(*prepared);
  ASSERT_TRUE(delta_run2.ok());
  EXPECT_EQ(delta_run2->answer, seed_run->answer);
  EXPECT_LE(delta_run2->total_visits(), 2u);

  // Nothing further moved: the retained answer stands, zero visits.
  auto clean_run = (*session)->ExecuteIncremental(*prepared);
  ASSERT_TRUE(clean_run.ok());
  EXPECT_EQ(clean_run->algorithm, "IncrementalParBoX[clean]");
  EXPECT_EQ(clean_run->total_visits(), 0u);
  EXPECT_EQ(clean_run->answer, seed_run->answer);
}

// ---- Deltas that land during an incremental run ------------------------

// A delta applied by an event-loop callback inside an incremental run's
// Drain must stay dirty for the next run. Only a shared host can hold
// such a callback across the run's rewind: a catalog namespace's Reset
// snapshots baselines, where a dedicated backend's drops pending
// events. The fixture schedules an insert under a non-root fragment f.
class CatalogMidRunDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto cat = Catalog::Create();
    ASSERT_TRUE(cat.ok());
    cat_ = std::move(*cat);
    Deployment d = MakeDeployment(71, 150, 6);
    auto opened =
        cat_->Open("live", std::move(d.set), std::move(d.placement));
    ASSERT_TRUE(opened.ok());
    doc_ = *opened;
    auto session = doc_->OpenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(*session);
    auto prepared = session_->Prepare("[//a[b] and //c]");
    ASSERT_TRUE(prepared.ok());
    q_ = std::move(*prepared);
    for (frag::FragmentId f : doc_->set().live_ids()) {
      if (f != doc_->set().root_fragment()) f_ = f;
    }
    ASSERT_NE(f_, frag::kNoFragment);
  }

  /// Insert a <c> under f's root from a callback due at once: it runs
  /// inside the next Drain, i.e. during the next run.
  void ScheduleDelta() {
    exec::ExecBackend& backend = session_->backend();
    backend.ScheduleAt(backend.now(), [this] {
      applied_ = session_
                     ->Apply(frag::Delta::InsertSubtree(
                         f_, doc_->set().fragment(f_).root, "c"))
                     .ok();
    });
  }

  /// The run after the mid-run delta: a delta pass over f alone whose
  /// answer equals a fresh parbox run's.
  void ExpectDeltaRunOverF() {
    EXPECT_EQ(session_->DirtyFragments(q_),
              std::vector<frag::FragmentId>{f_});
    auto delta_run = session_->ExecuteIncremental(q_);
    ASSERT_TRUE(delta_run.ok()) << delta_run.status().ToString();
    EXPECT_EQ(delta_run->algorithm, "IncrementalParBoX[delta]");
    auto fresh = session_->Execute(q_);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(delta_run->answer, fresh->answer);
  }

  std::unique_ptr<Catalog> cat_;
  Document* doc_ = nullptr;
  std::unique_ptr<core::Session> session_;
  core::PreparedQuery q_;
  frag::FragmentId f_ = frag::kNoFragment;
  bool applied_ = false;
};

// The run that drains the delta found nothing dirty at its start, so
// it is a clean lookup; the delta stays dirty for the run after it.
TEST_F(CatalogMidRunDeltaTest, DeltaDuringCleanRunStaysDirty) {
  auto seed_run = session_->ExecuteIncremental(q_);
  ASSERT_TRUE(seed_run.ok()) << seed_run.status().ToString();
  EXPECT_EQ(seed_run->algorithm, "IncrementalParBoX[full]");

  ScheduleDelta();
  EXPECT_FALSE(applied_);
  auto clean_run = session_->ExecuteIncremental(q_);
  ASSERT_TRUE(clean_run.ok()) << clean_run.status().ToString();
  EXPECT_EQ(clean_run->algorithm, "IncrementalParBoX[clean]");
  EXPECT_TRUE(applied_);
  ExpectDeltaRunOverF();
}

// The same delta landing during the seeding run: the query's state
// awaits its full pass when the delta marks it, and must keep f dirty.
TEST_F(CatalogMidRunDeltaTest, DeltaDuringSeedRunStaysDirty) {
  ScheduleDelta();
  EXPECT_FALSE(applied_);
  auto seed_run = session_->ExecuteIncremental(q_);
  ASSERT_TRUE(seed_run.ok()) << seed_run.status().ToString();
  EXPECT_EQ(seed_run->algorithm, "IncrementalParBoX[full]");
  EXPECT_TRUE(applied_);
  ExpectDeltaRunOverF();
}

// ---- Rebalance -----------------------------------------------------------

// The load-aware policy end to end: serve a skewed deployment, let the
// per-site meters accumulate, rebalance, and keep serving correctly.
TEST(CatalogMoveTest, RebalanceMovesFragmentsAndKeepsAnswers) {
  auto cat = Catalog::Create();
  ASSERT_TRUE(cat.ok());
  // Everything piled onto site 1 (root on 0) of a 4-site placement.
  Rng rng(61);
  xml::Document docxml = xmark::GenerateRandomSmallDocument(200, &rng);
  auto set = frag::FragmentSet::FromDocument(std::move(docxml));
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(frag::RandomSplits(&*set, 6, &rng).ok());
  std::vector<frag::SiteId> site_of(set->table_size(), 1);
  site_of[set->root_fragment()] = 0;
  auto placement = frag::Placement::Create(*set, std::move(site_of), 4);
  ASSERT_TRUE(placement.ok());
  auto opened =
      (*cat)->Open("skew", std::move(*set), std::move(*placement));
  ASSERT_TRUE(opened.ok());
  Document* doc = *opened;

  ServiceOptions options;
  options.cache_capacity = 0;  // keep the sites hot
  auto svc = CatalogService::Create(cat->get(), options);
  ASSERT_TRUE(svc.ok());
  QueryService* qs = (*svc)->document_service("skew");

  std::vector<bool> before;
  auto serve_round = [&](std::vector<bool>* answers) {
    int qi = 0;
    for (auto& q : MakeQueries(611, 4)) {
      const int slot = qi++;
      if (answers != nullptr) answers->resize(qi);
      ASSERT_TRUE(
          (*svc)
              ->Submit("skew", std::move(q), qs->now(),
                       [answers, slot](const service::QueryOutcome& o) {
                         if (answers != nullptr) {
                           (*answers)[slot] = o.answer;
                         }
                       })
              .ok());
    }
    (*svc)->Run();
    ASSERT_TRUE((*svc)->status().ok());
  };
  serve_round(&before);

  // Site 1 carried everything; the policy must propose real moves.
  auto applied = (*svc)->Rebalance("skew");
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GT(*applied, 0u);
  (*svc)->Run();  // drain migration transfers
  // Root stayed pinned; the hot site lost fragments.
  EXPECT_EQ(doc->placement().site_of(doc->set().root_fragment()), 0);
  size_t on_hot = 0;
  for (frag::FragmentId f : doc->set().live_ids()) {
    if (doc->placement().site_of(f) == 1) ++on_hot;
  }
  EXPECT_LT(on_hot, doc->set().live_count() - 1);

  std::vector<bool> after;
  serve_round(&after);
  EXPECT_EQ(after, before);
}

// ---- Catalog bookkeeping + construction-time validation ------------------

TEST(CatalogTest, OpenCloseFindNames) {
  auto cat = Catalog::Create();
  ASSERT_TRUE(cat.ok());
  for (const char* name : {"b", "a"}) {
    Deployment d = MakeDeployment(71, 60, 2);
    ASSERT_TRUE(
        (*cat)->Open(name, std::move(d.set), std::move(d.placement)).ok());
  }
  EXPECT_EQ((*cat)->size(), 2u);
  EXPECT_EQ((*cat)->names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_NE((*cat)->Find("a"), nullptr);
  EXPECT_EQ((*cat)->Find("zzz"), nullptr);

  // Duplicate names rejected; unknown close is NotFound.
  Deployment d = MakeDeployment(72, 60, 2);
  EXPECT_FALSE(
      (*cat)->Open("a", std::move(d.set), std::move(d.placement)).ok());
  EXPECT_EQ((*cat)->Close("zzz").code(), StatusCode::kNotFound);
  ASSERT_TRUE((*cat)->Close("a").ok());
  EXPECT_EQ((*cat)->size(), 1u);

  // A service over the catalog refuses unknown documents with the
  // served names listed.
  auto svc = CatalogService::Create(cat->get());
  ASSERT_TRUE(svc.ok());
  auto id = (*svc)->Submit("nope", xpath::NormQuery{}, 0.0);
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().message().find("b"), std::string::npos);
}

TEST(CatalogTest, BadBackendSpecsFailAtConstruction) {
  // Catalog::Create validates the host spec up front.
  EXPECT_FALSE(Catalog::Create({.backend = "quantum"}).ok());
  auto zero = Catalog::Create({.backend = "threads:0"});
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("1..1024"), std::string::npos);

  // QueryService::Create surfaces the same errors at construction
  // time (previously only the first Submit reported them).
  Deployment d = MakeDeployment(81, 60, 2);
  auto st = d.placement.Snapshot(d.set);
  ASSERT_TRUE(st.ok());
  ServiceOptions bad;
  bad.backend = "quantum";
  auto svc = QueryService::Create(&d.set, &*st, bad);
  ASSERT_FALSE(svc.ok());
  EXPECT_NE(svc.status().message().find("registered"), std::string::npos);
  bad.backend = "threads:0";
  EXPECT_FALSE(QueryService::Create(&d.set, &*st, bad).ok());

  // The non-validating constructor keeps working but shows the error
  // through status() from birth.
  QueryService legacy(&d.set, &*st, bad);
  EXPECT_FALSE(legacy.status().ok());
}

// Concurrent per-document sessions: several sessions over one entry
// share the substrate but answer independently and identically.
TEST(CatalogTest, ConcurrentSessionsPerDocument) {
  auto cat = Catalog::Create();
  ASSERT_TRUE(cat.ok());
  Deployment d = MakeDeployment(91, 120, 4);
  auto opened =
      (*cat)->Open("shared", std::move(d.set), std::move(d.placement));
  ASSERT_TRUE(opened.ok());
  Document* doc = *opened;

  auto s1 = doc->OpenSession();
  auto s2 = doc->OpenSession();
  ASSERT_TRUE(s1.ok() && s2.ok());
  auto q1 = (*s1)->Prepare("[//a[b]]");
  auto q2 = (*s2)->Prepare("[//a[b]]");
  ASSERT_TRUE(q1.ok() && q2.ok());
  auto r1 = (*s1)->Execute(*q1);
  auto r2 = (*s2)->Execute(*q2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->answer, r2->answer);
  EXPECT_EQ(r1->network_bytes, r2->network_bytes);
  EXPECT_EQ(r1->total_visits(), r2->total_visits());

  // A handle from one session is rejected by the other.
  EXPECT_FALSE((*s2)->Execute(*q1).ok());
}

}  // namespace
}  // namespace parbox

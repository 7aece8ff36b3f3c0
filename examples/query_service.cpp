// QueryService walkthrough: serve a stream of queries over the paper's
// stock-portfolio fragmentation (Fig. 2), watch batching and the
// result cache at work, then update the document with typed deltas
// and watch exactly the affected cached answers fall out.
//
//   $ ./example_query_service

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "fragment/delta.h"
#include "fragment/strategies.h"
#include "service/query_service.h"
#include "xmark/portfolio.h"
#include "xpath/normalize.h"

namespace {

void Check(const parbox::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

parbox::xpath::NormQuery Compile(const char* text) {
  auto q = parbox::xpath::CompileQuery(text);
  Check(q.status());
  return std::move(*q);
}

void PrintOutcomes(const std::vector<parbox::service::QueryOutcome>& outcomes,
                   size_t from) {
  for (size_t i = from; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    std::printf("  q%llu -> %-5s  %.3f ms  %s\n",
                static_cast<unsigned long long>(o.query_id),
                o.answer ? "true" : "false", o.latency_seconds() * 1e3,
                o.cache_hit           ? "[cache hit]"
                : o.shared_evaluation ? "[shared evaluation]"
                                      : "[evaluated]");
  }
}

}  // namespace

int main() {
  using namespace parbox;

  // 1. The paper's fragmented portfolio: F0..F3 across four sites.
  auto set = xmark::BuildPortfolioFragments();
  Check(set.status());
  std::vector<frag::SiteId> sites = frag::AssignOneSitePerFragment(*set);
  auto st = frag::SourceTree::Create(*set, sites);
  Check(st.status());
  std::printf("portfolio: %zu fragments on %d sites\n\n",
              set->live_count(), st->num_sites());

  // 2. A long-lived service instead of one Session::Execute per
  //    query. Under the hood it is a core::Session: one cluster, one hash-consing
  //    formula factory, one per-site partition plan, for its lifetime.
  //    Handing it the mutable deployment lets it apply deltas too.
  service::QueryService svc(&*set, &*st);
  // The service reports each outcome to the Submit that asked for it;
  // this walkthrough keeps them all, in completion order.
  std::vector<service::QueryOutcome> outcomes;
  auto record = [&outcomes](const service::QueryOutcome& o) {
    outcomes.push_back(o);
  };

  // 3. Three users ask at once; two ask the same thing. The batch
  //    visits each site once and evaluates the YHOO query once.
  std::printf("burst of three queries (two identical):\n");
  Check(svc.Submit(Compile(xmark::kYhooQuery), 0.0, record).status());
  Check(svc.Submit(Compile(xmark::kYhooQuery), 0.0, record).status());
  Check(svc.Submit(Compile(xmark::kGoogSellQuery), 0.0, record).status());
  svc.Run();
  PrintOutcomes(outcomes, 0);

  // 4. Ask again later: pure cache hits, no site is visited.
  std::printf("\nsame questions again:\n");
  size_t before = outcomes.size();
  Check(svc.Submit(Compile(xmark::kYhooQuery), svc.now(), record).status());
  Check(
      svc.Submit(Compile(xmark::kGoogSellQuery), svc.now(), record).status());
  svc.Run();
  PrintOutcomes(outcomes, before);

  // 5. Update the document through the service: a YHOO stock lists on
  //    Bache's NASDAQ market (fragment F3). Each delta re-evaluates F3
  //    under every cached query; the YHOO answer changes, so that
  //    entry — and only that entry — is invalidated; the GOOG answer
  //    stays cached.
  std::printf("\ncache before update: %zu entries\n", svc.cache_size());
  xml::Node* market = set->fragment(3).root;
  auto stock = svc.ApplyDelta(frag::Delta::InsertSubtree(3, market, "stock"));
  Check(stock.status());
  Check(svc.ApplyDelta(
               frag::Delta::InsertSubtree(3, stock->node, "code", "YHOO"))
            .status());
  std::printf("insNode(<stock><code>YHOO</code></stock>) into F3\n");
  std::printf("cache after update:  %zu entries (only the affected "
              "answer dropped)\n",
              svc.cache_size());

  // 6. Re-ask: invalidated answers re-evaluate, the rest still hit.
  std::printf("\nafter the update:\n");
  before = outcomes.size();
  Check(svc.Submit(Compile(xmark::kYhooQuery), svc.now(), record).status());
  Check(
      svc.Submit(Compile(xmark::kGoogSellQuery), svc.now(), record).status());
  svc.Run();
  PrintOutcomes(outcomes, before);

  std::printf("\n%s\n", svc.BuildReport().ToString().c_str());
  return 0;
}

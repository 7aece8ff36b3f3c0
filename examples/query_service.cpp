// QueryService walkthrough: serve a stream of queries over the paper's
// stock-portfolio fragmentation (Fig. 2), watch batching and the
// result cache at work, then update the document with typed deltas
// and watch exactly the affected cached answers fall out.
//
//   $ ./example_query_service

#include <cstdio>
#include <cstdlib>

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

void PrintOutcomes(const parbox::service::QueryService& svc, size_t from) {
  for (size_t i = from; i < svc.outcomes().size(); ++i) {
    const auto& o = svc.outcomes()[i];
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

  // 2. A long-lived service instead of one-shot Run* calls. Under the
  //    hood it is a core::Session: one cluster, one hash-consing
  //    formula factory, one per-site partition plan, for its lifetime.
  //    Handing it the mutable deployment lets it apply deltas too.
  service::QueryService svc(&*set, &*st);

  // 3. Three users ask at once; two ask the same thing. The batch
  //    visits each site once and evaluates the YHOO query once.
  std::printf("burst of three queries (two identical):\n");
  Check(svc.Submit(Compile(xmark::kYhooQuery), 0.0).status());
  Check(svc.Submit(Compile(xmark::kYhooQuery), 0.0).status());
  Check(svc.Submit(Compile(xmark::kGoogSellQuery), 0.0).status());
  svc.Run();
  PrintOutcomes(svc, 0);

  // 4. Ask again later: pure cache hits, no site is visited.
  std::printf("\nsame questions again:\n");
  size_t before = svc.outcomes().size();
  Check(svc.Submit(Compile(xmark::kYhooQuery), svc.now()).status());
  Check(svc.Submit(Compile(xmark::kGoogSellQuery), svc.now()).status());
  svc.Run();
  PrintOutcomes(svc, before);

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
  before = svc.outcomes().size();
  Check(svc.Submit(Compile(xmark::kYhooQuery), svc.now()).status());
  Check(svc.Submit(Compile(xmark::kGoogSellQuery), svc.now()).status());
  svc.Run();
  PrintOutcomes(svc, before);

  std::printf("\n%s\n", svc.BuildReport().ToString().c_str());
  return 0;
}

// X3 (ablation, google-benchmark): substrate kernel throughput — the
// centralized bottomUp evaluator (the O(|T|·|q|) baseline every bound
// in the paper is expressed against), the partial-evaluation kernel
// (solo, on a serving benchmark's leaf fragment, and as a 64-lane fused
// family walk), the XML parser and the corpus generator. Kernel cases
// count kernel ops (element × evaluated QList entry) as items. The
// per-query front-end cases — compile, prepare, solve — count queries
// as items.

#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "bench_common.h"
#include "boolexpr/expr.h"
#include "boolexpr/solver.h"
#include "common/rng.h"
#include "core/partial_eval.h"
#include "fragment/strategies.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpath/eval.h"
#include "xpath/normalize.h"

namespace {

using namespace parbox;

xml::Document MakeCorpus(uint64_t bytes) {
  return xmark::GenerateStarDocument(1, bytes, 42);
}

/// The serving benchmark's hot_read portfolio: 8 descendant chains x 8
/// variants (variant 0 bare, the rest conjoined with a marker test), in
/// popularity-rank order.
std::vector<std::string> PortfolioTexts() {
  constexpr std::array<const char*, 8> kChains = {
      "//regions/africa/item/description",
      "//regions/europe/item/description/parlist",
      "//history/site/people/person/profile/interest",
      "//history/site/regions/asia/item/description/parlist",
      "//history/site/regions/namerica/item/description/parlist/parlist",
      "//history/site/history/site/regions/africa/item/description/"
      "parlist",
      "//site/regions/africa/item/description/parlist/name/quantity/"
      "location/payment",
      "//regions/africa/item/description/parlist/name/quantity/location/"
      "payment/shipping/profile",
  };
  std::vector<std::string> texts;
  for (size_t v = 0; v < 8; ++v) {
    for (size_t f = 0; f < kChains.size(); ++f) {
      const std::string chain = kChains[f];
      texts.push_back(v == 0 ? "[" + chain + "]"
                             : "[" + chain + " and //marker = \"m" +
                                   std::to_string((f + v) % 10) + "\"]");
    }
  }
  return texts;
}

/// `n` texts shaped like the serving benchmark's cold reads: a region's
/// items conjoined with an auction price test, a third of them negated.
std::vector<std::string> ColdReadTexts(uint64_t seed, size_t n) {
  constexpr std::array<const char*, 6> kRegions = {
      "africa", "asia", "australia", "europe", "namerica", "samerica"};
  Rng rng(seed);
  std::vector<std::string> texts;
  for (size_t i = 0; i < n; ++i) {
    std::string text = "[//regions/";
    text += kRegions[rng.Uniform(kRegions.size())];
    text += "/item and ";
    const std::string money = "$" + std::to_string(rng.UniformInt(1, 999));
    switch (rng.Uniform(3)) {
      case 0:
        text += "//open_auction[initial = \"" + money + "\"]]";
        break;
      case 1:
        text += "//closed_auction[price = \"" + money + "\"]]";
        break;
      default:
        text += "not(//open_auction[current = \"" + money + "\"])]";
        break;
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

std::vector<xpath::NormQuery> CompileAll(
    const std::vector<std::string>& texts) {
  std::vector<xpath::NormQuery> out;
  for (const std::string& text : texts) {
    auto q = xpath::CompileQuery(text);
    bench::Check(q.status());
    out.push_back(std::move(*q));
  }
  return out;
}

/// bench_x7_prepared_reuse's deployment and query.
constexpr const char* kPreparedReuseQuery =
    "[//item[payment = \"Creditcard\" and shipping] and "
    "//person[creditcard and profile/interest] and "
    "not(//category[name = \"none\"])]";
bench::Deployment PreparedReuseDeployment() {
  return bench::MakeStar(2, 512, bench::BenchConfig::FromEnv().seed);
}

void BM_CentralizedEval(benchmark::State& state) {
  xml::Document doc = MakeCorpus(1 << 20);
  auto q = xmark::MakeQueryOfQListSize(static_cast<int>(state.range(0)));
  size_t elements = xml::CountElements(doc.root());
  for (auto _ : state) {
    xpath::EvalCounters counters;
    auto result = xpath::EvalBoolean(*doc.root(), *q, &counters);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(elements) * state.range(0));
  state.counters["elements"] = static_cast<double>(elements);
}
BENCHMARK(BM_CentralizedEval)->Arg(2)->Arg(8)->Arg(15)->Arg(23);

void BM_PartialEvalFragment(benchmark::State& state) {
  // A fragment with sub-fragments: the formula-domain kernel.
  xml::Document doc = xmark::GenerateChainDocument(4, 1 << 18, 42);
  auto set = frag::FragmentSet::FromDocument(std::move(doc));
  auto created = frag::SplitAtAllLabeled(&*set, "site");
  auto q = xmark::MakeQueryOfQListSize(8);
  for (auto _ : state) {
    bexpr::ExprFactory factory;
    xpath::EvalCounters counters;
    auto eq =
        core::PartialEvalFragment(&factory, *q, *set, 0, &counters);
    benchmark::DoNotOptimize(eq);
    state.SetItemsProcessed(static_cast<int64_t>(counters.ops));
  }
}
BENCHMARK(BM_PartialEvalFragment);

/// The serving benchmark's corpus shape: an XMark star of 8 sites, one
/// fragment per site, `total_bytes` split evenly.
frag::FragmentSet MakeServingStar(uint64_t total_bytes) {
  std::vector<std::vector<int>> topology(8);
  for (int i = 1; i < 8; ++i) topology[0].push_back(i);
  const std::vector<uint64_t> sizes(8, total_bytes / 8);
  auto set = frag::FragmentSet::FromDocument(
      xmark::GenerateTreeDocument(topology, sizes, 1));
  auto created = frag::SplitAtAllLabeled(&*set, "site");
  return std::move(*set);
}

void BM_ColdReadLeafWalk(benchmark::State& state) {
  // One cold read at one site: a one-lane walk over a leaf fragment
  // (no virtual node, so the walk never leaves the masks) of a 1 MiB
  // star shaped like the cold_read corpus.
  const frag::FragmentSet set = MakeServingStar(1 << 20);
  auto q = xpath::CompileQuery(
      "[//regions/asia/item and not(//open_auction[current = \"$42\"])]");
  frag::FragmentId leaf = set.root_fragment();
  for (frag::FragmentId f : set.live_ids()) {
    if (xml::CountVirtuals(set.fragment(f).root) == 0) leaf = f;
  }
  bexpr::ExprFactory factory;
  uint64_t ops = 0;
  for (auto _ : state) {
    xpath::EvalCounters counters;
    auto eq = core::PartialEvalFragment(&factory, *q, set, leaf, &counters);
    benchmark::DoNotOptimize(eq);
    ops += counters.ops;
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_ColdReadLeafWalk);

void BM_FamilyWalk64(benchmark::State& state) {
  // read_write's cache maintenance: the 64-query family portfolio (8
  // chains x 8 variants, width 1816) as ONE fused walk of each of the
  // 8 fragments of a 512 KiB star shaped like the read_write corpus;
  // the root's walk carries the virtual spine.
  const std::vector<xpath::NormQuery> queries =
      CompileAll(PortfolioTexts());  // popularity-rank order
  std::vector<const xpath::NormQuery*> lanes;
  for (const xpath::NormQuery& q : queries) lanes.push_back(&q);
  const xpath::EvalBatch batch = xpath::MakeEvalBatch(lanes);
  const frag::FragmentSet set = MakeServingStar(512 << 10);
  bexpr::ExprFactory factory;
  uint64_t ops = 0;
  for (auto _ : state) {
    xpath::EvalCounters counters;
    for (frag::FragmentId f : set.live_ids()) {
      auto eqs = core::PartialEvalFragmentBatch(&factory, batch, set, f,
                                                &counters);
      benchmark::DoNotOptimize(eqs);
    }
    ops += counters.ops;
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
  state.counters["width"] = static_cast<double>(batch.total_width);
}
BENCHMARK(BM_FamilyWalk64)->Unit(benchmark::kMillisecond);

void BM_XmlParse(benchmark::State& state) {
  xml::Document doc = MakeCorpus(static_cast<uint64_t>(state.range(0)));
  std::string text = xml::WriteXml(doc.root());
  for (auto _ : state) {
    auto parsed = xml::ParseXml(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_XmlParse)->Arg(1 << 18)->Arg(1 << 21);

void BM_XmlWrite(benchmark::State& state) {
  xml::Document doc = MakeCorpus(1 << 20);
  int64_t bytes = 0;
  for (auto _ : state) {
    std::string text = xml::WriteXml(doc.root());
    benchmark::DoNotOptimize(text);
    bytes = static_cast<int64_t>(text.size());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_XmlWrite);

void BM_XmarkGenerate(benchmark::State& state) {
  for (auto _ : state) {
    xml::Document doc =
        MakeCorpus(static_cast<uint64_t>(state.range(0)));
    benchmark::DoNotOptimize(doc.root());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XmarkGenerate)->Arg(1 << 18)->Arg(1 << 21);

void BM_QueryCompile(benchmark::State& state) {
  const char* text =
      "[//broker[//stock/code/text() = \"GOOG\" and "
      "not(//stock/code/text() = \"YHOO\")] or //market[name]]";
  for (auto _ : state) {
    auto q = xpath::CompileQuery(text);
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCompile);

/// Parse + normalize of each text in turn: arg 0 is the hot_read
/// portfolio (64 texts), arg 1 is 256 seeded cold_read-style texts.
void BM_QueryCompileServing(benchmark::State& state) {
  const std::vector<std::string> texts =
      state.range(0) == 0 ? PortfolioTexts() : ColdReadTexts(7, 256);
  size_t i = 0;
  for (auto _ : state) {
    auto q = xpath::CompileQuery(texts[i]);
    benchmark::DoNotOptimize(q);
    if (++i == texts.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCompileServing)->Arg(0)->Arg(1);

/// What Submit pays per read before the cache lookup: validate,
/// fingerprint and wire-size a compiled query (Session::Prepare, here
/// its borrowing form, so no copy of the query is timed), over the
/// hot_read portfolio.
void BM_Prepare(benchmark::State& state) {
  const bench::Deployment d = PreparedReuseDeployment();
  core::Session session = bench::OpenSession(d);
  const std::vector<xpath::NormQuery> queries =
      CompileAll(PortfolioTexts());
  size_t i = 0;
  for (auto _ : state) {
    auto prepared = session.Prepare(&queries[i]);
    benchmark::DoNotOptimize(prepared);
    if (++i == queries.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Prepare);

/// The coordinator's solve for bench_x7_prepared_reuse's query on its
/// deployment: the bottom-up pass over every fragment's triplet.
void BM_SolveForAnswer(benchmark::State& state) {
  const bench::Deployment d = PreparedReuseDeployment();
  auto q = xpath::CompileQuery(kPreparedReuseQuery);
  bench::Check(q.status());
  bexpr::ExprFactory factory;
  std::vector<bexpr::FragmentEquations> equations(d.set.table_size());
  std::vector<std::vector<int32_t>> children(d.set.table_size());
  for (frag::FragmentId f : d.set.live_ids()) {
    xpath::EvalCounters counters;
    equations[f] =
        core::PartialEvalFragment(&factory, *q, d.set, f, &counters);
    children[f] = d.set.fragment(f).children;
  }
  for (auto _ : state) {
    auto answer = bexpr::SolveForAnswer(&factory, equations, children,
                                        d.set.root_fragment(), q->root());
    benchmark::DoNotOptimize(answer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolveForAnswer);

}  // namespace

BENCHMARK_MAIN();

// Shared helpers for the parbox test suite: one-shot evaluation on a
// fresh Session, random surface queries and random fragmentations for
// property-based tests, the serving benchmark's query texts, and an
// outcome recorder for QueryService submissions.

#ifndef PARBOX_TESTS_TESTUTIL_H_
#define PARBOX_TESTS_TESTUTIL_H_

#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/evaluator.h"
#include "core/report.h"
#include "core/session.h"
#include "fragment/delta.h"
#include "fragment/fragment.h"
#include "fragment/source_tree.h"
#include "fragment/strategies.h"
#include "service/query_service.h"
#include "xmark/generator.h"
#include "xpath/ast.h"

namespace parbox::testutil {

/// One evaluation the way a one-shot caller writes it: a fresh Session
/// over (set, st) on the default backend and tracer, Prepare, Execute.
inline Result<core::RunReport> Evaluate(
    const frag::FragmentSet& set, const frag::SourceTree& st,
    const xpath::NormQuery& q, std::string_view evaluator = "parbox",
    const sim::NetworkParams& network = {}) {
  PARBOX_ASSIGN_OR_RETURN(
      core::Session session,
      core::Session::Create(&set, &st, {.network = network}));
  PARBOX_ASSIGN_OR_RETURN(core::PreparedQuery prepared,
                          session.Prepare(&q));
  return session.Execute(prepared, {.evaluator = std::string(evaluator)});
}

/// Every registered evaluator, in EvaluatorRegistry::Names() order, on
/// one fresh Session: one Prepare, N Executes.
inline Result<std::vector<core::RunReport>> EvaluateAll(
    const frag::FragmentSet& set, const frag::SourceTree& st,
    const xpath::NormQuery& q) {
  PARBOX_ASSIGN_OR_RETURN(core::Session session,
                          core::Session::Create(&set, &st));
  PARBOX_ASSIGN_OR_RETURN(core::PreparedQuery prepared,
                          session.Prepare(&q));
  std::vector<core::RunReport> reports;
  for (const std::string& name : core::EvaluatorRegistry::Instance().Names()) {
    PARBOX_ASSIGN_OR_RETURN(core::RunReport report,
                            session.Execute(prepared, {.evaluator = name}));
    reports.push_back(std::move(report));
  }
  return reports;
}

/// Labels / text values matching xmark::GenerateRandomSmallDocument's
/// alphabet, so random queries have a fair chance of being satisfied.
inline std::string RandomLabel(Rng* rng) {
  static constexpr const char* kLabels[] = {"a", "b", "c", "d", "e"};
  return kLabels[rng->Uniform(5)];
}
inline std::string RandomText(Rng* rng) {
  return "t" + std::to_string(rng->Uniform(5));
}

inline std::unique_ptr<xpath::QualExpr> RandomQual(Rng* rng, int depth);

inline std::unique_ptr<xpath::PathExpr> RandomPath(Rng* rng, int depth) {
  using xpath::PathExpr;
  int pick = static_cast<int>(rng->Uniform(depth <= 0 ? 3 : 6));
  switch (pick) {
    case 0:
      return PathExpr::Self();
    case 1:
      return PathExpr::Label(RandomLabel(rng));
    case 2:
      return PathExpr::Wildcard();
    case 3:
      return PathExpr::Child(RandomPath(rng, depth - 1),
                             RandomPath(rng, depth - 1));
    case 4:
      return PathExpr::Desc(RandomPath(rng, depth - 1),
                            RandomPath(rng, depth - 1));
    default:
      return PathExpr::Qualified(RandomPath(rng, depth - 1),
                                 RandomQual(rng, depth - 1));
  }
}

inline std::unique_ptr<xpath::QualExpr> RandomQual(Rng* rng, int depth) {
  using xpath::QualExpr;
  int pick = static_cast<int>(rng->Uniform(depth <= 0 ? 3 : 6));
  switch (pick) {
    case 0:
      return QualExpr::Path(RandomPath(rng, depth - 1));
    case 1:
      return QualExpr::TextEquals(RandomPath(rng, depth - 1),
                                  RandomText(rng));
    case 2:
      return QualExpr::LabelEquals(RandomLabel(rng));
    case 3:
      return QualExpr::Not(RandomQual(rng, depth - 1));
    case 4:
      return QualExpr::And(RandomQual(rng, depth - 1),
                           RandomQual(rng, depth - 1));
    default:
      return QualExpr::Or(RandomQual(rng, depth - 1),
                          RandomQual(rng, depth - 1));
  }
}

/// The CompletionFn that files each outcome into `*log`, in completion
/// order, then runs `then` (the service keeps no outcome log itself).
inline service::QueryService::CompletionFn RecordInto(
    std::vector<service::QueryOutcome>* log,
    service::QueryService::CompletionFn then = nullptr) {
  return [log, then = std::move(then)](const service::QueryOutcome& o) {
    log->push_back(o);
    if (then) then(o);
  };
}

/// The serving benchmark's hot_read portfolio: 8 descendant chains x 8
/// variants (variant 0 bare, the rest conjoined with a marker test), in
/// popularity-rank order.
inline std::vector<std::string> HotReadFamilyTexts() {
  static constexpr const char* kChains[] = {
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
  std::vector<std::string> out(64);
  for (size_t f = 0; f < 8; ++f) {
    for (size_t v = 0; v < 8; ++v) {
      const std::string chain = kChains[f];
      out[v * 8 + f] = v == 0 ? "[" + chain + "]"
                              : "[" + chain + " and //marker = \"m" +
                                    std::to_string((f + v) % 10) + "\"]";
    }
  }
  return out;
}

/// `n` texts shaped like the serving benchmark's cold reads: a region's
/// items conjoined with an auction price test, a third of them negated.
inline std::vector<std::string> ColdReadStyleTexts(uint64_t seed, size_t n) {
  static constexpr const char* kRegions[] = {
      "africa", "asia", "australia", "europe", "namerica", "samerica"};
  Rng rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    std::string text = "[//regions/";
    text += kRegions[rng.Uniform(6)];
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
    out.push_back(std::move(text));
  }
  return out;
}

/// A random fragmented document: small random tree, `splits` random
/// splits, one site per fragment (the most adversarial placement).
struct RandomScenario {
  frag::FragmentSet set;
  frag::SourceTree st;
};

inline RandomScenario MakeRandomScenario(uint64_t seed, int max_elements,
                                         int splits) {
  Rng rng(seed);
  xml::Document doc = xmark::GenerateRandomSmallDocument(max_elements, &rng);
  auto set_result = frag::FragmentSet::FromDocument(std::move(doc));
  frag::FragmentSet set = std::move(set_result).value();
  auto created = frag::RandomSplits(&set, splits, &rng);
  (void)created;
  auto st = frag::SourceTree::Create(set,
                                     frag::AssignOneSitePerFragment(set));
  return RandomScenario{std::move(set), std::move(st).value()};
}

/// The scenario's placement as a site-of-fragment table (the form
/// core::MaterializedView::Create takes).
inline std::vector<frag::SiteId> SitesOf(const RandomScenario& s) {
  std::vector<frag::SiteId> sites(s.set.table_size());
  for (size_t i = 0; i < sites.size(); ++i) {
    sites[i] = s.st.site_of(static_cast<frag::FragmentId>(i));
  }
  return sites;
}

/// True iff the session-default execution backend ($PARBOX_BACKEND)
/// is the deterministic simulation. Tests asserting virtual-clock
/// properties — bit-identical reports, makespans that scale with
/// NetworkParams, "exec.sim.events" — skip under any other backend (the
/// `ctest -L backends` jobs re-run whole suites with
/// PARBOX_BACKEND=threads).
inline bool DefaultBackendIsSim() {
  const char* spec = std::getenv("PARBOX_BACKEND");
  return spec == nullptr || spec[0] == '\0' ||
         std::string(spec) == "sim";
}

/// True iff the session-default execution backend is the
/// multi-process site-daemon backend ("proc[:N[,tcp]]"). Wall-clock
/// speedup assertions skip under it: every cross-site parcel pays a
/// real socket round trip, which dwarfs micro-workload makespans.
inline bool DefaultBackendIsProc() {
  const char* spec = std::getenv("PARBOX_BACKEND");
  return spec != nullptr && std::string(spec).rfind("proc", 0) == 0;
}

/// Trial-count multiplier for the seeded randomized suites (the
/// `ctest -L extended` set): PARBOX_TEST_TRIALS if set to a positive
/// integer, else 1.
inline int TrialMultiplier() {
  if (const char* trials = std::getenv("PARBOX_TEST_TRIALS")) {
    const int v = std::atoi(trials);
    if (v > 0) return v;
  }
  return 1;
}

/// A random, always-valid content delta against a random live
/// fragment of `*set`: insert-subtree, delete-subtree (when a
/// boundary-safe candidate exists), rename-label, or retext, drawn
/// from the same label/text alphabet as the random documents so
/// deltas have a fair chance of flipping query answers.
inline frag::Delta RandomDelta(frag::FragmentSet* set, Rng* rng) {
  const std::vector<frag::FragmentId> live = set->live_ids();
  const frag::FragmentId f =
      live[rng->Uniform(static_cast<uint64_t>(live.size()))];
  xml::Node* root = set->mutable_fragment(f)->root;

  std::vector<xml::Node*> elements;   // rename/retext/insert targets
  std::vector<xml::Node*> deletable;  // non-root, no virtual inside
  std::vector<xml::Node*> stack{root};
  while (!stack.empty()) {
    xml::Node* n = stack.back();
    stack.pop_back();
    if (n->is_element()) elements.push_back(n);
    if (n != root && xml::CountVirtuals(n) == 0) deletable.push_back(n);
    for (xml::Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      stack.push_back(c);
    }
  }

  auto pick = [&](std::vector<xml::Node*>& v) {
    return v[rng->Uniform(static_cast<uint64_t>(v.size()))];
  };
  switch (rng->Uniform(4)) {
    case 0:
      break;  // insert below
    case 1:
      if (!deletable.empty()) {
        return frag::Delta::DeleteSubtree(f, pick(deletable));
      }
      break;  // nothing safely deletable: insert instead
    case 2:
      return frag::Delta::RenameLabel(f, pick(elements),
                                      RandomLabel(rng));
    default:
      return frag::Delta::Retext(f, pick(elements), RandomText(rng));
  }
  return frag::Delta::InsertSubtree(
      f, pick(elements), RandomLabel(rng),
      rng->Uniform(2) == 0 ? RandomText(rng) : std::string());
}

}  // namespace parbox::testutil

#endif  // PARBOX_TESTS_TESTUTIL_H_

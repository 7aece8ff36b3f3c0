// LazyParBoX (Sec. 4): evaluate fragments in increasing depth of the
// source tree, stopping as soon as the collected partial answers
// determine the query — saving total computation when, e.g., the query
// is already satisfied near the root. Per step, each site evaluates
// only its fragments at the current depth, so parallelism is limited
// to one level at a time; the elapsed time may be far worse than
// ParBoX's (Figs. 9-11).
//
// Each step is one core::Round (core/round.h) over that step's
// fragments grouped by site: one "query" message per site (64 bytes
// per fragment, plus the query itself on the site's first contact) and
// one triplet batch back. Every step splices into one retained system.
//
// Whether the answer is determined is a three-valued (Kleene) question:
// a fragment not evaluated yet is a hole in the retained system, and
// contributes "unknown" to the equation system.

#include <functional>
#include <unordered_map>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/retained.h"
#include "core/round.h"

namespace parbox::core {

namespace {
constexpr uint64_t kRequestBytes = 64;

class LazyParBoXEvaluator final : public Evaluator {
 public:
  std::string_view name() const override { return "lazy"; }
  std::string_view display_name() const override { return "LazyParBoX"; }
  std::string_view description() const override {
    return "depth-by-depth evaluation, stops once the answer is "
           "determined";
  }
  Result<RunReport> Run(Engine& eng) const override;
};

PARBOX_REGISTER_EVALUATOR(5, LazyParBoXEvaluator);

Result<RunReport> LazyParBoXEvaluator::Run(Engine& eng) const {
  const frag::FragmentSet& set = eng.set();
  const frag::SourceTree& st = eng.st();
  const xpath::NormQuery& q = eng.q();
  const size_t n = q.size();

  // Coordinator-context state: every step's triplets splice into
  // `system`, and step() recursion runs here.
  RetainedSystem system;
  system.Reset(set.table_size());
  std::vector<bool> contacted(static_cast<size_t>(st.num_sites()), false);
  size_t evaluated = 0;
  bool answer = false;
  bool done = false;
  Status failure = Status::OK();

  std::function<void(int)> step = [&](int depth) {
    // The first traversal step covers the coordinator's fragments AND
    // depth 1 ("LazyParBoX initially evaluates a query only in the
    // coordinator and in the fragments of depth 1", Sec. 4).
    std::vector<frag::FragmentId> frontier = st.fragments_at_depth(depth);
    if (depth == 0 && st.max_depth() >= 1) {
      for (frag::FragmentId f : st.fragments_at_depth(1)) {
        frontier.push_back(f);
      }
    }
    // The step's fragments by site, sites in first-seen order. The
    // query itself travels only on a site's first contact.
    std::vector<SiteWork> work;
    std::unordered_map<sim::SiteId, size_t> site_at;
    for (frag::FragmentId f : frontier) {
      const sim::SiteId s = st.site_of(f);
      auto [it, inserted] = site_at.try_emplace(s, work.size());
      if (inserted) {
        const bool first = !contacted[static_cast<size_t>(s)];
        contacted[static_cast<size_t>(s)] = true;
        work.push_back({s, {}, first ? eng.query_bytes() : 0});
      }
      work[it->second].fragments.push_back(f);
      work[it->second].request_bytes += kRequestBytes;
    }
    evaluated += frontier.size();
    eng.StartQueryRound(
        &system, "query", std::move(work), [&, depth](RoundResult round) {
          failure = round.status;
          if (!failure.ok()) return;
          // All of this depth collected: try to answer.
          eng.SolveAt(n * evaluated, [&, depth]() {
            bexpr::Tri t = bexpr::SolvePartial(
                &eng.factory(), system.table(), eng.plan().children,
                set.root_fragment(), q.root());
            if (t != bexpr::Tri::kUnknown) {
              answer = t == bexpr::Tri::kTrue;
              done = true;
            } else if ((depth == 0 ? 1 : depth) < st.max_depth()) {
              step(depth == 0 ? 2 : depth + 1);
            }
            // depth == max_depth with Unknown cannot happen: with all
            // fragments available the system fully resolves.
          });
        });
  };
  step(0);

  eng.backend().Drain();
  PARBOX_RETURN_IF_ERROR(failure);
  if (!done) {
    return Status::Internal("LazyParBoX terminated without an answer");
  }
  return eng.Finish(std::string(display_name()), answer,
                    3 * n * evaluated);
}

}  // namespace

}  // namespace parbox::core

// LazyParBoX (Sec. 4): evaluate fragments in increasing depth of the
// source tree, stopping as soon as the collected partial answers
// determine the query — saving total computation when, e.g., the query
// is already satisfied near the root. Per step, each site evaluates
// only its fragments at the current depth, so parallelism is limited
// to one level at a time; the elapsed time may be far worse than
// ParBoX's (Figs. 9-11).
//
// Whether the answer is determined is a three-valued (Kleene) question:
// unevaluated fragments contribute "unknown" to the equation system.

#include <functional>
#include <memory>
#include <unordered_set>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/partial_eval.h"
#include "exec/codec.h"

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
  exec::ExecBackend& backend = eng.backend();
  const sim::SiteId coord = eng.coordinator();
  const size_t n = q.size();

  // Coordinator-context state: triplets land here (decoded into the
  // session factory), and step() recursion runs here.
  std::vector<bexpr::FragmentEquations> equations(set.table_size());
  std::vector<const bexpr::FragmentEquations*> available(set.table_size(),
                                                         nullptr);
  std::unordered_set<sim::SiteId> contacted;
  size_t pending = 0;
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
    pending = frontier.size();
    for (frag::FragmentId f : frontier) {
      const sim::SiteId s = st.site_of(f);
      backend.RecordVisit(s);
      // The query itself travels only on a site's first contact.
      uint64_t bytes = kRequestBytes;
      if (contacted.insert(s).second) bytes += eng.query_bytes();
      backend.Send(coord, s, exec::Parcel::OfSize(bytes), "query",
                   [&, f, s, depth](exec::Parcel) {
        xpath::EvalCounters counters;
        bexpr::ExprFactory& site_factory = backend.site_factory(s);
        auto reply = std::make_shared<exec::TripletBatch>();
        reply->items.push_back(
            {0, f, PartialEvalFragment(&site_factory, q, set, f, &counters)});
        eng.AddOps(counters.ops);
        exec::Parcel parcel =
            exec::MakeTripletBatchParcel(site_factory, std::move(reply));
        backend.Compute(s, counters.ops,
                        [&, f, s, depth,
                         parcel = std::move(parcel)]() mutable {
          backend.Send(s, coord, std::move(parcel), "triplet",
                       [&, f, depth](exec::Parcel delivered) {
            Result<exec::TripletBatch> got = exec::TakeTripletBatch(
                std::move(delivered), &eng.factory());
            if (!got.ok() || got->items.size() != 1) {
              failure = got.ok() ? Status::Internal("malformed lazy reply")
                                 : got.status();
              return;
            }
            equations[f] = std::move(got->items[0].eq);
            available[f] = &equations[f];
            ++evaluated;
            if (--pending != 0) return;
            // All of this depth collected: try to answer.
            const uint64_t solve_ops = n * evaluated;
            eng.AddOps(solve_ops);
            backend.Compute(coord, solve_ops, [&, depth]() {
              bexpr::Tri t = bexpr::SolvePartial(
                  &eng.factory(), available, eng.plan().children,
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
        });
      });
    }
  };
  step(0);

  backend.Drain();
  PARBOX_RETURN_IF_ERROR(failure);
  if (!done) {
    return Status::Internal("LazyParBoX terminated without an answer");
  }
  return eng.Finish(std::string(display_name()), answer,
                    3 * n * evaluated);
}

}  // namespace

}  // namespace parbox::core

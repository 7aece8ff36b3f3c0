// Algorithm ParBoX (Fig. 3): the paper's main contribution.
//
// Stage 1: the coordinator identifies, from the prepared site plan,
//          every site holding at least one fragment and ships it the
//          query.
// Stage 2: all sites partially evaluate the query over each of their
//          fragments in parallel (sites run concurrently; fragments on
//          one site serialize) and ship back the (V, CV, DV) triplets,
//          one reply per site.
// Stage 3: the coordinator solves the resulting system of Boolean
//          equations with one bottom-up pass of the source tree.
//
// Guarantees (verified by tests): one visit per site; traffic
// O(|q|·card(F)) independent of |T|; total computation O(|q|·(|T| +
// card(F))).
//
// One core::Round (core/round.h) over the plan: one "query" message
// per site, one walk per fragment in the site's context, and ONE
// triplet batch back per site, spliced into a retained system that the
// coordinator then solves. On a real thread pool stage 2 is genuine
// parallelism with the wire codec in between; on the sim every event
// is deterministic.

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/retained.h"
#include "core/round.h"

namespace parbox::core {

namespace {

class ParBoXEvaluator final : public Evaluator {
 public:
  std::string_view name() const override { return "parbox"; }
  std::string_view display_name() const override { return "ParBoX"; }
  std::string_view description() const override {
    return "parallel partial evaluation, one visit per site (Fig. 3)";
  }
  Result<RunReport> Run(Engine& eng) const override;
};

PARBOX_REGISTER_EVALUATOR(2, ParBoXEvaluator);

Result<RunReport> ParBoXEvaluator::Run(Engine& eng) const {
  const frag::FragmentSet& set = eng.set();
  const xpath::NormQuery& q = eng.q();
  RetainedSystem system;
  system.Reset(set.table_size());
  Status failure = Status::OK();
  // Stages 1 and 2 over the pre-partitioned per-site plan, then stage
  // 3 once every site's triplets have been spliced.
  eng.StartQueryRound(&system, "query",
                      PlanWork(eng.plan(), eng.query_bytes()),
                      [&](RoundResult round) {
                        failure = round.status;
                        if (failure.ok()) eng.Solve(&system, &failure);
                      });
  eng.backend().Drain();
  PARBOX_RETURN_IF_ERROR(failure);
  return eng.Finish(std::string(display_name()), system.answer(),
                    3 * q.size() * set.live_count());
}

}  // namespace

}  // namespace parbox::core

// Per-fragment evaluation kernels used by the distributed algorithms.
//
// PartialEvalFragment is Procedure evalQual/bottomUp of Fig. 3 run at a
// participating site: it evaluates the whole QList over one fragment in
// the formula domain, introducing a fresh variable for each (V, DV)
// entry of each virtual node, and returns the triplet of vectors for
// the fragment root — the site's "partial answer".
// PartialEvalFragmentBatch does the same for a whole batch of queries
// in ONE walk (xpath/eval.h); the solo form is its one-lane case.
//
// BoolEvalFragment is the same traversal with sub-fragment truth
// values supplied by the caller — the building block of
// NaiveDistributed, where children are fully evaluated before their
// parent. Nothing resolves to a formula, so it never leaves the
// kernel's masks.

#ifndef PARBOX_CORE_PARTIAL_EVAL_H_
#define PARBOX_CORE_PARTIAL_EVAL_H_

#include <functional>
#include <vector>

#include "boolexpr/expr.h"
#include "boolexpr/solver.h"
#include "fragment/fragment.h"
#include "xml/dom.h"
#include "xpath/eval.h"
#include "xpath/qlist.h"

namespace parbox::core {

/// The virtual-node resolver of partial evaluation: sub-fragment k's
/// vectors are fresh variables Var{k, V|DV, i} for entries i < width
/// (decoupling the dependency between partial evaluations). In a batch
/// walk entry i of EVERY lane reads the same variable — the systems
/// are solved per lane, so the shared names never mix across queries.
struct FreshVarResolver {
  bexpr::ExprFactory* factory;
  size_t width;
  void operator()(const xml::Node& vnode, std::vector<bexpr::ExprId>* v,
                  std::vector<bexpr::ExprId>* dv) const;
};

/// Partially evaluate `q` over fragment `f`. Variables are named after
/// the sub-fragments they stand for.
bexpr::FragmentEquations PartialEvalFragment(bexpr::ExprFactory* factory,
                                             const xpath::NormQuery& q,
                                             const frag::FragmentSet& set,
                                             frag::FragmentId f,
                                             xpath::EvalCounters* counters);

/// Observes each element of a partial evaluation: the fragment
/// walked, the element, and its finished V vectors in the batch's
/// concatenated layout (xpath/eval.h), as ids in the walk's factory.
using FragmentNodeHook =
    std::function<void(frag::FragmentId, const xml::Node&,
                       const std::vector<bexpr::ExprId>&)>;

/// Partially evaluate every query of `batch` over fragment `f` in ONE
/// bottom-up walk, returning one FragmentEquations per lane (in lane
/// order, each with .fragment = f). Each lane's triplet is
/// bit-identical (same ExprIds) to a solo PartialEvalFragment of that
/// query in the same factory. `counters->ops` charges only non-shared
/// entries; donor-copied slots accumulate in `stats->shared_entries`.
/// A non-empty `node_hook` sees every element of the walk.
std::vector<bexpr::FragmentEquations> PartialEvalFragmentBatch(
    bexpr::ExprFactory* factory, const xpath::EvalBatch& batch,
    const frag::FragmentSet& set, frag::FragmentId f,
    xpath::EvalCounters* counters, xpath::BatchEvalStats* stats = nullptr,
    const FragmentNodeHook& node_hook = nullptr);

/// Truth-value vectors (V, DV) for already-evaluated fragments.
struct ResolvedVectors {
  std::vector<bool> v;
  std::vector<bool> dv;
};

/// Evaluate `q` over fragment `f` to truth values;
/// `child_vectors(k)` must return the resolved vectors of sub-fragment
/// `k`.
ResolvedVectors BoolEvalFragment(
    const xpath::NormQuery& q, const frag::FragmentSet& set,
    frag::FragmentId f,
    const std::function<const ResolvedVectors&(frag::FragmentId)>&
        child_vectors,
    xpath::EvalCounters* counters);

}  // namespace parbox::core

#endif  // PARBOX_CORE_PARTIAL_EVAL_H_

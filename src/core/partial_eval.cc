#include "core/partial_eval.h"

namespace parbox::core {

void FreshVarResolver::operator()(const xml::Node& vnode,
                                  std::vector<bexpr::ExprId>* v,
                                  std::vector<bexpr::ExprId>* dv) const {
  v->resize(width);
  dv->resize(width);
  for (size_t i = 0; i < width; ++i) {
    (*v)[i] = factory->Var({vnode.fragment_ref, bexpr::VectorKind::kV,
                            static_cast<int32_t>(i)});
    (*dv)[i] = factory->Var({vnode.fragment_ref, bexpr::VectorKind::kDV,
                             static_cast<int32_t>(i)});
  }
}

bexpr::FragmentEquations PartialEvalFragment(bexpr::ExprFactory* factory,
                                             const xpath::NormQuery& q,
                                             const frag::FragmentSet& set,
                                             frag::FragmentId f,
                                             xpath::EvalCounters* counters) {
  return std::move(
      PartialEvalFragmentBatch(factory, xpath::MakeEvalBatch({&q}), set, f,
                               counters)
          .front());
}

std::vector<bexpr::FragmentEquations> PartialEvalFragmentBatch(
    bexpr::ExprFactory* factory, const xpath::EvalBatch& batch,
    const frag::FragmentSet& set, frag::FragmentId f,
    xpath::EvalCounters* counters, xpath::BatchEvalStats* stats,
    const FragmentNodeHook& node_hook) {
  const xml::Node& root = *set.fragment(f).root;
  const FreshVarResolver fresh{factory, batch.max_width};
  // The hook is chosen once per walk: an unhooked walk keeps the
  // kernel's NoNodeHook instantiation.
  std::vector<xpath::EvalVectors> vectors =
      node_hook == nullptr
          ? xpath::BottomUpEvalBatch(factory, batch, root, fresh, counters,
                                     stats)
          : xpath::BottomUpEvalBatch(
                factory, batch, root, fresh, counters, stats,
                [&](const xml::Node& node,
                    const std::vector<bexpr::ExprId>& vv) {
                  node_hook(f, node, vv);
                });
  std::vector<bexpr::FragmentEquations> out(vectors.size());
  for (size_t k = 0; k < vectors.size(); ++k) {
    out[k].fragment = f;
    out[k].v = std::move(vectors[k].v);
    out[k].cv = std::move(vectors[k].cv);
    out[k].dv = std::move(vectors[k].dv);
  }
  return out;
}

ResolvedVectors BoolEvalFragment(
    const xpath::NormQuery& q, const frag::FragmentSet& set,
    frag::FragmentId f,
    const std::function<const ResolvedVectors&(frag::FragmentId)>&
        child_vectors,
    xpath::EvalCounters* counters) {
  // A truth-value walk: sub-fragments resolve to constants, so the walk
  // never promotes and never writes `factory`.
  bexpr::ExprFactory factory;
  auto vectors = xpath::BottomUpEval(
      &factory, q, *set.fragment(f).root,
      [&](const xml::Node& vnode, std::vector<bexpr::ExprId>* v,
          std::vector<bexpr::ExprId>* dv) {
        const ResolvedVectors& resolved = child_vectors(vnode.fragment_ref);
        for (size_t i = 0; i < q.size(); ++i) {
          (*v)[i] = factory.FromBool(resolved.v[i]);
          (*dv)[i] = factory.FromBool(resolved.dv[i]);
        }
      },
      counters);
  ResolvedVectors out;
  out.v.resize(q.size());
  out.dv.resize(q.size());
  for (size_t i = 0; i < q.size(); ++i) {
    out.v[i] = vectors.v[i] == bexpr::kTrueExpr;
    out.dv[i] = vectors.dv[i] == bexpr::kTrueExpr;
  }
  return out;
}

}  // namespace parbox::core

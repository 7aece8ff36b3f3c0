#include "boolexpr/solver.h"

#include <cassert>

namespace parbox::bexpr {

namespace {

/// Children-first ordering of the fragment tree rooted at `root`.
std::vector<int32_t> PostOrder(
    const std::vector<std::vector<int32_t>>& children_of, int32_t root) {
  std::vector<int32_t> order;
  std::vector<std::pair<int32_t, bool>> stack{{root, false}};
  while (!stack.empty()) {
    auto [f, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      order.push_back(f);
      continue;
    }
    stack.emplace_back(f, true);
    for (int32_t c : children_of[f]) stack.emplace_back(c, false);
  }
  return order;
}

}  // namespace

Result<Assignment> SolveBottomUp(
    ExprFactory* factory, const std::vector<FragmentEquations>& equations,
    const std::vector<std::vector<int32_t>>& children_of, int32_t root) {
  // One V and one DV variable per entry: size the table once.
  size_t variables = 0;
  for (const FragmentEquations& eq : equations) variables += 2 * eq.v.size();
  Assignment assignment;
  assignment.Reserve(variables);
  for (int32_t f : PostOrder(children_of, root)) {
    if (f < 0 || static_cast<size_t>(f) >= equations.size()) {
      return Status::InvalidArgument("fragment id out of range");
    }
    const FragmentEquations& eq = equations[f];
    if (eq.fragment != f) {
      return Status::InvalidArgument(
          "equations not indexed by fragment id");
    }
    assert(eq.v.size() == eq.dv.size());
    for (size_t i = 0; i < eq.v.size(); ++i) {
      VarId vid{f, VectorKind::kV, static_cast<int32_t>(i)};
      VarId did{f, VectorKind::kDV, static_cast<int32_t>(i)};
      Result<bool> v = factory->Eval(eq.v[i], assignment);
      if (!v.ok()) return v.status();
      Result<bool> dv = factory->Eval(eq.dv[i], assignment);
      if (!dv.ok()) return dv.status();
      assignment.Set(vid, *v);
      assignment.Set(did, *dv);
    }
  }
  return assignment;
}

Result<bool> SolveForAnswer(
    ExprFactory* factory, const std::vector<FragmentEquations>& equations,
    const std::vector<std::vector<int32_t>>& children_of, int32_t root,
    int32_t query_index) {
  PARBOX_ASSIGN_OR_RETURN(
      Assignment assignment,
      SolveBottomUp(factory, equations, children_of, root));
  VarId vid{root, VectorKind::kV, query_index};
  std::optional<bool> answer = assignment.Get(vid);
  if (!answer.has_value()) {
    return Status::Unresolved("root vector lacks the answer entry");
  }
  return *answer;
}

Tri SolvePartial(ExprFactory* factory,
                 const std::vector<FragmentEquations>& equations,
                 const std::vector<std::vector<int32_t>>& children_of,
                 int32_t root, int32_t query_index) {
  Assignment assignment;
  for (int32_t f : PostOrder(children_of, root)) {
    if (static_cast<size_t>(f) >= equations.size() ||
        equations[f].fragment != f) {
      continue;  // a hole: entries stay unknown
    }
    const FragmentEquations& eq = equations[f];
    for (size_t i = 0; i < eq.v.size(); ++i) {
      Tri v = factory->EvalPartial(eq.v[i], assignment);
      Tri dv = factory->EvalPartial(eq.dv[i], assignment);
      if (v != Tri::kUnknown) {
        assignment.Set({f, VectorKind::kV, static_cast<int32_t>(i)},
                       v == Tri::kTrue);
      }
      if (dv != Tri::kUnknown) {
        assignment.Set({f, VectorKind::kDV, static_cast<int32_t>(i)},
                       dv == Tri::kTrue);
      }
    }
  }
  std::optional<bool> answer =
      assignment.Get({root, VectorKind::kV, query_index});
  if (!answer.has_value()) return Tri::kUnknown;
  return *answer ? Tri::kTrue : Tri::kFalse;
}

}  // namespace parbox::bexpr

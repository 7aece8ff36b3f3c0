#include "boolexpr/expr.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace parbox::bexpr {

std::string VarId::ToString() const {
  std::string out = kind == VectorKind::kV ? "v" : "dv";
  out += std::to_string(fragment);
  out += ".";
  out += std::to_string(query_index);
  return out;
}

ExprFactory::ExprFactory() {
  // Slot 0: false. Slot 1: true.
  nodes_.push_back({ExprOp::kConst, 0, 0, 0});
  nodes_.push_back({ExprOp::kConst, 1, 0, 0});
}

std::span<const ExprId> ExprFactory::children(ExprId e) const {
  const NodeData& n = nodes_[e];
  return {child_pool_.data() + n.child_begin, n.child_count};
}

uint64_t ExprFactory::HashKey(ExprOp op, uint32_t var,
                              std::span<const ExprId> children) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(op);
  h = h * 0x100000001b3ULL ^ var;
  for (ExprId c : children) {
    h = h * 0x100000001b3ULL ^ static_cast<uint64_t>(c);
  }
  return h;
}

bool ExprFactory::KeyEquals(ExprId e, ExprOp op, uint32_t var,
                            std::span<const ExprId> kids) const {
  const NodeData& n = nodes_[e];
  if (n.op != op || n.var != var || n.child_count != kids.size()) {
    return false;
  }
  return std::equal(kids.begin(), kids.end(),
                    child_pool_.begin() + n.child_begin);
}

ExprId ExprFactory::Intern(ExprOp op, uint32_t var,
                           std::vector<ExprId> children) {
  uint64_t key = HashKey(op, var, children);
  auto [lo, hi] = intern_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (KeyEquals(it->second, op, var, children)) return it->second;
  }
  NodeData node;
  node.op = op;
  node.var = var;
  node.child_begin = static_cast<uint32_t>(child_pool_.size());
  node.child_count = static_cast<uint32_t>(children.size());
  child_pool_.insert(child_pool_.end(), children.begin(), children.end());
  ExprId id = static_cast<ExprId>(nodes_.size());
  nodes_.push_back(node);
  intern_.emplace(key, id);
  return id;
}

ExprId ExprFactory::Var(VarId var) {
  assert(var.query_index >= 0 && var.query_index <= VarId::kMaxQueryIndex);
  assert(var.fragment >= 0);
  return Intern(ExprOp::kVar, var.Pack(), {});
}

ExprId ExprFactory::MakeNot(ExprId a) {
  if (op(a) == ExprOp::kNot) return children(a)[0];  // !!x == x
  return Intern(ExprOp::kNot, 0, {a});
}

ExprId ExprFactory::MakeBinary(ExprOp nary_op, ExprId a, ExprId b) {
  ExprId kids[2] = {a, b};
  return MakeNary(nary_op, kids);
}

ExprId ExprFactory::AndN(std::span<const ExprId> kids) {
  return MakeNary(ExprOp::kAnd, kids);
}

ExprId ExprFactory::OrN(std::span<const ExprId> kids) {
  return MakeNary(ExprOp::kOr, kids);
}

ExprId ExprFactory::MakeNary(ExprOp nary_op, std::span<const ExprId> input) {
  assert(nary_op == ExprOp::kAnd || nary_op == ExprOp::kOr);
  // For AND: `absorbing` = false, `neutral` = true. For OR: dual.
  const ExprId absorbing = nary_op == ExprOp::kAnd ? kFalseExpr : kTrueExpr;
  const ExprId neutral = nary_op == ExprOp::kAnd ? kTrueExpr : kFalseExpr;

  // Flatten one level of same-op children, drop neutral elements,
  // short-circuit on the absorbing element.
  std::vector<ExprId> flat;
  flat.reserve(input.size());
  for (ExprId c : input) {
    if (c == absorbing) return absorbing;
    if (c == neutral) continue;
    if (op(c) == nary_op) {
      for (ExprId gc : children(c)) flat.push_back(gc);
    } else {
      flat.push_back(c);
    }
  }
  if (flat.empty()) return neutral;

  // Canonical order + dedup (idempotence).
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  if (flat.size() == 1) return flat[0];

  // Complement cancellation: x op !x == absorbing. `flat` is sorted,
  // so membership is a binary search — no per-call hash set.
  for (ExprId c : flat) {
    if (op(c) == ExprOp::kNot &&
        std::binary_search(flat.begin(), flat.end(), children(c)[0])) {
      return absorbing;
    }
  }
  return Intern(nary_op, 0, std::move(flat));
}

size_t ExprFactory::NodeCount(ExprId e) const {
  std::unordered_set<ExprId> seen;
  std::vector<ExprId> stack{e};
  while (!stack.empty()) {
    ExprId x = stack.back();
    stack.pop_back();
    if (!seen.insert(x).second) continue;
    for (ExprId c : children(x)) stack.push_back(c);
  }
  return seen.size();
}

std::vector<VarId> ExprFactory::CollectVars(ExprId e) const {
  std::unordered_set<ExprId> seen;
  std::vector<ExprId> stack{e};
  std::vector<uint32_t> packed;
  while (!stack.empty()) {
    ExprId x = stack.back();
    stack.pop_back();
    if (!seen.insert(x).second) continue;
    if (op(x) == ExprOp::kVar) packed.push_back(nodes_[x].var);
    for (ExprId c : children(x)) stack.push_back(c);
  }
  std::sort(packed.begin(), packed.end());
  std::vector<VarId> out;
  out.reserve(packed.size());
  for (uint32_t p : packed) out.push_back(VarId::Unpack(p));
  return out;
}

std::string ExprFactory::ToString(ExprId e) const {
  switch (op(e)) {
    case ExprOp::kConst:
      return e == kTrueExpr ? "true" : "false";
    case ExprOp::kVar:
      return var(e).ToString();
    case ExprOp::kNot:
      return "!" + ToString(children(e)[0]);
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      std::string sep = op(e) == ExprOp::kAnd ? " & " : " | ";
      std::string out = "(";
      bool first = true;
      for (ExprId c : children(e)) {
        if (!first) out += sep;
        out += ToString(c);
        first = false;
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

Result<bool> ExprFactory::Eval(ExprId e, const Assignment& assignment) const {
  Tri t = EvalPartial(e, assignment);
  if (t == Tri::kUnknown) {
    return Status::Unresolved("formula contains unassigned variables: " +
                              ToString(e));
  }
  return t == Tri::kTrue;
}

Tri ExprFactory::EvalPartial(ExprId e, const Assignment& assignment) const {
  // Allocation-free fast paths: after folding, most solver queries hit
  // a constant or a bare variable — no memo machinery needed.
  switch (op(e)) {
    case ExprOp::kConst:
      return e == kTrueExpr ? Tri::kTrue : Tri::kFalse;
    case ExprOp::kVar: {
      std::optional<bool> v = assignment.Get(var(e));
      return !v.has_value() ? Tri::kUnknown
             : *v           ? Tri::kTrue
                            : Tri::kFalse;
    }
    default:
      break;
  }

  // Iterative post-order with memoization (formulas are DAGs). The
  // solver calls this once per formula entry, so the memo and stack are
  // per-thread scratch, cleared rather than reallocated per call.
  static thread_local FlatMap<ExprId, Tri> memo;
  static thread_local std::vector<std::pair<ExprId, bool>> stack;
  memo.Clear();
  stack.assign(1, {e, false});
  while (!stack.empty()) {
    auto [x, expanded] = stack.back();
    stack.pop_back();
    if (memo.Find(x) != nullptr) continue;
    if (!expanded) {
      switch (op(x)) {
        case ExprOp::kConst:
          memo.Insert(x, x == kTrueExpr ? Tri::kTrue : Tri::kFalse);
          break;
        case ExprOp::kVar: {
          std::optional<bool> v = assignment.Get(var(x));
          memo.Insert(x, !v.has_value() ? Tri::kUnknown
                         : *v           ? Tri::kTrue
                                        : Tri::kFalse);
          break;
        }
        default:
          stack.emplace_back(x, true);
          for (ExprId c : children(x)) stack.emplace_back(c, false);
          break;
      }
      continue;
    }
    // Children are memoized; combine (Kleene logic).
    if (op(x) == ExprOp::kNot) {
      Tri c = *memo.Find(children(x)[0]);
      memo.Insert(x, c == Tri::kUnknown ? Tri::kUnknown
                     : c == Tri::kTrue  ? Tri::kFalse
                                        : Tri::kTrue);
    } else {
      const bool is_and = op(x) == ExprOp::kAnd;
      Tri absorbing = is_and ? Tri::kFalse : Tri::kTrue;
      Tri result = is_and ? Tri::kTrue : Tri::kFalse;
      for (ExprId c : children(x)) {
        Tri t = *memo.Find(c);
        if (t == absorbing) {
          result = absorbing;
          break;
        }
        if (t == Tri::kUnknown) result = Tri::kUnknown;
      }
      memo.Insert(x, result);
    }
  }
  return *memo.Find(e);
}

ExprId ExprFactory::Substitute(ExprId e, const Assignment& assignment) {
  std::unordered_map<ExprId, ExprId> memo;
  std::vector<std::pair<ExprId, bool>> stack{{e, false}};
  while (!stack.empty()) {
    auto [x, expanded] = stack.back();
    stack.pop_back();
    if (memo.count(x) > 0) continue;
    if (!expanded) {
      switch (op(x)) {
        case ExprOp::kConst:
          memo[x] = x;
          break;
        case ExprOp::kVar: {
          std::optional<bool> v = assignment.Get(var(x));
          memo[x] = v.has_value() ? FromBool(*v) : x;
          break;
        }
        default:
          stack.emplace_back(x, true);
          for (ExprId c : children(x)) stack.emplace_back(c, false);
          break;
      }
      continue;
    }
    if (op(x) == ExprOp::kNot) {
      memo[x] = Not(memo[children(x)[0]]);
    } else {
      // Rebuild through the smart constructors so folding reapplies.
      // Note: children(x) may be invalidated by pool growth inside
      // MakeNary, so copy first.
      std::vector<ExprId> kids(children(x).begin(), children(x).end());
      for (ExprId& k : kids) k = memo[k];
      memo[x] = MakeNary(op(x), kids);
    }
  }
  return memo[e];
}

}  // namespace parbox::bexpr

// Hash-consed Boolean formulas — the "partial answers" of ParBoX.
//
// Partial evaluation of a query over a fragment yields, per sub-query,
// either a truth value or a Boolean formula over variables that stand
// for the still-unknown results of sub-fragments (Sec. 3.1). This
// module provides those formulas:
//
//   * Nodes are immutable and interned in an ExprFactory; a formula is
//     a 32-bit ExprId. Structurally equal formulas share one id, so
//     equality is integer comparison.
//   * Smart constructors perform the paper's `compFm` constant folding
//     (cases c0-c3 of Fig. 3) plus n-ary flattening, deduplication and
//     complement cancellation, which keeps each vector entry within the
//     O(card(F_j)) size bound of the analysis.
//   * Variables carry structured identity (fragment, vector kind,
//     query index), so the equation-system solving of `evalST` is array
//     arithmetic, not string matching.
//
// An ExprFactory is per-run state, not a global: concurrent runs (or
// simulated sites) each own one.

#ifndef PARBOX_BOOLEXPR_EXPR_H_
#define PARBOX_BOOLEXPR_EXPR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/status.h"

namespace parbox::bexpr {

/// Which per-node vector a variable refers to (Fig. 3's V and DV; the
/// parent procedure never reads a child fragment's CV, see DESIGN.md).
enum class VectorKind : uint8_t { kV = 0, kDV = 1 };

/// Identity of a Boolean variable: "entry `query_index` of vector
/// `kind` at the root of fragment `fragment`".
struct VarId {
  int32_t fragment = 0;
  VectorKind kind = VectorKind::kV;
  int32_t query_index = 0;

  static constexpr int kQueryBits = 12;   ///< up to 4096 sub-queries
  static constexpr int32_t kMaxQueryIndex = (1 << kQueryBits) - 1;

  /// Dense packing used as a hash/array key.
  uint32_t Pack() const {
    return (static_cast<uint32_t>(fragment) << (kQueryBits + 1)) |
           (static_cast<uint32_t>(kind) << kQueryBits) |
           static_cast<uint32_t>(query_index);
  }
  static VarId Unpack(uint32_t packed) {
    VarId v;
    v.fragment = static_cast<int32_t>(packed >> (kQueryBits + 1));
    v.kind = static_cast<VectorKind>((packed >> kQueryBits) & 1);
    v.query_index = static_cast<int32_t>(packed & kMaxQueryIndex);
    return v;
  }

  friend bool operator==(const VarId& a, const VarId& b) {
    return a.Pack() == b.Pack();
  }

  /// "v7.3" / "dv7.3": kind + fragment + query index.
  std::string ToString() const;
};

/// Handle to an interned formula. 0 = false, 1 = true.
using ExprId = int32_t;
inline constexpr ExprId kFalseExpr = 0;
inline constexpr ExprId kTrueExpr = 1;

enum class ExprOp : uint8_t { kConst, kVar, kNot, kAnd, kOr };

/// Kleene three-valued truth, for LazyParBoX's "can we answer yet?".
enum class Tri : uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

/// Partial assignment of truth values to variables, in a flat table
/// keyed by VarId::Pack() (whose all-ones value is reserved: a fragment
/// id below 2^19 - 1 keeps every packed id clear of it).
class Assignment {
 public:
  void Set(VarId var, bool value) { values_.Set(var.Pack(), value); }
  std::optional<bool> Get(VarId var) const {
    const bool* value = values_.Find(var.Pack());
    if (value == nullptr) return std::nullopt;
    return *value;
  }
  size_t size() const { return values_.size(); }
  /// Room for `n` variables without rehashing.
  void Reserve(size_t n) { values_.Reserve(n); }

 private:
  FlatMap<uint32_t, bool> values_;
};

/// Owns and interns formula nodes; all operations live here.
class ExprFactory {
 public:
  ExprFactory();
  ExprFactory(const ExprFactory&) = delete;
  ExprFactory& operator=(const ExprFactory&) = delete;
  ExprFactory(ExprFactory&&) = default;
  ExprFactory& operator=(ExprFactory&&) = default;

  // ---- Construction (with compFm folding) ----
  ExprId False() const { return kFalseExpr; }
  ExprId True() const { return kTrueExpr; }
  ExprId FromBool(bool b) const { return b ? kTrueExpr : kFalseExpr; }
  ExprId Var(VarId var);
  // Not/And/Or fold constants inline, allocation-free (the folds
  // MakeNary would apply anyway): the evaluation kernel's formula path
  // calls them per (element × QList entry), mostly on constants.
  ExprId Not(ExprId a) {
    if (a == kFalseExpr) return kTrueExpr;
    if (a == kTrueExpr) return kFalseExpr;
    return MakeNot(a);
  }
  ExprId And(ExprId a, ExprId b) {
    if (a == kFalseExpr || b == kFalseExpr) return kFalseExpr;
    if (a == kTrueExpr) return b;
    if (b == kTrueExpr) return a;
    if (a == b) return a;
    return MakeBinary(ExprOp::kAnd, a, b);
  }
  ExprId Or(ExprId a, ExprId b) {
    if (a == kTrueExpr || b == kTrueExpr) return kTrueExpr;
    if (a == kFalseExpr) return b;
    if (b == kFalseExpr) return a;
    if (a == b) return a;
    return MakeBinary(ExprOp::kOr, a, b);
  }
  /// n-ary forms (fold over the binary smart constructors).
  ExprId AndN(std::span<const ExprId> children);
  ExprId OrN(std::span<const ExprId> children);

  // ---- Introspection ----
  ExprOp op(ExprId e) const { return nodes_[e].op; }
  bool is_const(ExprId e) const { return e == kFalseExpr || e == kTrueExpr; }
  /// Precondition: is_const(e).
  bool const_value(ExprId e) const { return e == kTrueExpr; }
  /// Precondition: op(e) == kVar.
  VarId var(ExprId e) const { return VarId::Unpack(nodes_[e].var); }
  /// Children (one for kNot, >= 2 for kAnd/kOr, none otherwise).
  std::span<const ExprId> children(ExprId e) const;

  /// Number of distinct DAG nodes reachable from `e`.
  size_t NodeCount(ExprId e) const;
  /// Total interned nodes in this factory (ablation metric).
  size_t total_nodes() const { return nodes_.size(); }

  /// Distinct variables appearing in `e`, in ascending packed order.
  std::vector<VarId> CollectVars(ExprId e) const;

  /// Infix rendering, e.g. "(v3.1 & !dv4.0) | true".
  std::string ToString(ExprId e) const;

  // ---- Evaluation / substitution ----
  /// Two-valued evaluation. Fails with Unresolved if a variable has no
  /// value in `assignment`.
  Result<bool> Eval(ExprId e, const Assignment& assignment) const;

  /// Kleene three-valued evaluation under a partial assignment.
  Tri EvalPartial(ExprId e, const Assignment& assignment) const;

  /// Replace assigned variables by constants and re-simplify. Unknown
  /// variables remain symbolic.
  ExprId Substitute(ExprId e, const Assignment& assignment);

 private:
  struct NodeData {
    ExprOp op;
    uint32_t var = 0;          // packed VarId for kVar
    uint32_t child_begin = 0;  // into child_pool_
    uint32_t child_count = 0;
  };

  ExprId Intern(ExprOp op, uint32_t var, std::vector<ExprId> children);
  static uint64_t HashKey(ExprOp op, uint32_t var,
                          std::span<const ExprId> children);
  bool KeyEquals(ExprId e, ExprOp op, uint32_t var,
                 std::span<const ExprId> children) const;

  /// Shared implementation of And/Or (they are exact duals).
  ExprId MakeNary(ExprOp op, std::span<const ExprId> children);
  /// The non-constant cases of Not and of binary And/Or.
  ExprId MakeNot(ExprId a);
  ExprId MakeBinary(ExprOp op, ExprId a, ExprId b);

  std::vector<NodeData> nodes_;
  std::vector<ExprId> child_pool_;
  std::unordered_multimap<uint64_t, ExprId> intern_;
};

}  // namespace parbox::bexpr

#endif  // PARBOX_BOOLEXPR_EXPR_H_

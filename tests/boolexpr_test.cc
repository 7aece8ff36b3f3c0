#include <gtest/gtest.h>

#include <string>

#include "boolexpr/expr.h"
#include "boolexpr/serialize.h"
#include "boolexpr/solver.h"
#include "common/rng.h"

namespace parbox::bexpr {
namespace {

VarId V(int32_t fragment, int32_t index = 0) {
  return VarId{fragment, VectorKind::kV, index};
}
VarId DV(int32_t fragment, int32_t index = 0) {
  return VarId{fragment, VectorKind::kDV, index};
}

// ---------- VarId packing ----------

TEST(VarIdTest, PackUnpackRoundTrip) {
  for (int32_t frag : {0, 1, 7, 1000, 100000}) {
    for (VectorKind kind : {VectorKind::kV, VectorKind::kDV}) {
      for (int32_t idx : {0, 1, 255, VarId::kMaxQueryIndex}) {
        VarId original{frag, kind, idx};
        VarId round = VarId::Unpack(original.Pack());
        EXPECT_EQ(round.fragment, frag);
        EXPECT_EQ(round.kind, kind);
        EXPECT_EQ(round.query_index, idx);
      }
    }
  }
}

TEST(VarIdTest, DistinctIdsDistinctPacks) {
  EXPECT_NE(V(1, 2).Pack(), V(2, 1).Pack());
  EXPECT_NE(V(1, 2).Pack(), DV(1, 2).Pack());
}

TEST(VarIdTest, ToStringShowsKind) {
  EXPECT_EQ(V(3, 7).ToString(), "v3.7");
  EXPECT_EQ(DV(3, 7).ToString(), "dv3.7");
}

// ---------- Constant folding (the compFm cases) ----------

TEST(ExprTest, ConstantsAreFixedIds) {
  ExprFactory f;
  EXPECT_EQ(f.False(), kFalseExpr);
  EXPECT_EQ(f.True(), kTrueExpr);
  EXPECT_EQ(f.FromBool(false), kFalseExpr);
  EXPECT_EQ(f.FromBool(true), kTrueExpr);
  EXPECT_TRUE(f.is_const(f.True()));
  EXPECT_TRUE(f.const_value(f.True()));
  EXPECT_FALSE(f.const_value(f.False()));
}

TEST(ExprTest, ConstConstFolding) {
  // compFm case c0: both operands are truth values.
  ExprFactory f;
  EXPECT_EQ(f.And(f.True(), f.True()), f.True());
  EXPECT_EQ(f.And(f.True(), f.False()), f.False());
  EXPECT_EQ(f.Or(f.False(), f.False()), f.False());
  EXPECT_EQ(f.Or(f.True(), f.False()), f.True());
  EXPECT_EQ(f.Not(f.True()), f.False());
  EXPECT_EQ(f.Not(f.False()), f.True());
}

TEST(ExprTest, ConstFormulaFolding) {
  // compFm cases c1/c2: one truth value, one formula.
  ExprFactory f;
  ExprId x = f.Var(V(1));
  EXPECT_EQ(f.And(f.True(), x), x);
  EXPECT_EQ(f.And(x, f.True()), x);
  EXPECT_EQ(f.And(f.False(), x), f.False());
  EXPECT_EQ(f.Or(f.False(), x), x);
  EXPECT_EQ(f.Or(x, f.True()), f.True());
}

TEST(ExprTest, Idempotence) {
  ExprFactory f;
  ExprId x = f.Var(V(1));
  EXPECT_EQ(f.And(x, x), x);
  EXPECT_EQ(f.Or(x, x), x);
}

TEST(ExprTest, DoubleNegation) {
  ExprFactory f;
  ExprId x = f.Var(V(1));
  EXPECT_EQ(f.Not(f.Not(x)), x);
}

TEST(ExprTest, ComplementCancellation) {
  ExprFactory f;
  ExprId x = f.Var(V(1));
  EXPECT_EQ(f.And(x, f.Not(x)), f.False());
  EXPECT_EQ(f.Or(x, f.Not(x)), f.True());
}

TEST(ExprTest, HashConsingSharesStructure) {
  ExprFactory f;
  ExprId a = f.Var(V(1));
  ExprId b = f.Var(V(2));
  ExprId e1 = f.And(a, b);
  ExprId e2 = f.And(b, a);  // commutative => same canonical node
  EXPECT_EQ(e1, e2);
  ExprId e3 = f.Or(f.And(a, b), f.And(b, a));
  EXPECT_EQ(e3, e1);  // Or(x, x) == x
}

TEST(ExprTest, FlatteningAssociativity) {
  ExprFactory f;
  ExprId a = f.Var(V(1));
  ExprId b = f.Var(V(2));
  ExprId c = f.Var(V(3));
  EXPECT_EQ(f.And(f.And(a, b), c), f.And(a, f.And(b, c)));
  EXPECT_EQ(f.Or(f.Or(a, b), c), f.Or(a, f.Or(b, c)));
}

TEST(ExprTest, NaryConstructors) {
  ExprFactory f;
  std::vector<ExprId> vars = {f.Var(V(1)), f.Var(V(2)), f.Var(V(3))};
  ExprId all = f.AndN(vars);
  EXPECT_EQ(f.op(all), ExprOp::kAnd);
  EXPECT_EQ(f.children(all).size(), 3u);
  std::vector<ExprId> none;
  EXPECT_EQ(f.AndN(none), f.True());  // empty conjunction
  EXPECT_EQ(f.OrN(none), f.False());  // empty disjunction
}

TEST(ExprTest, VarIntrospection) {
  ExprFactory f;
  ExprId x = f.Var(V(9, 4));
  EXPECT_EQ(f.op(x), ExprOp::kVar);
  EXPECT_EQ(f.var(x).fragment, 9);
  EXPECT_EQ(f.var(x).query_index, 4);
  EXPECT_EQ(f.Var(V(9, 4)), x);  // interned
}

TEST(ExprTest, NodeCountIsDagAware) {
  ExprFactory f;
  ExprId a = f.Var(V(1));
  ExprId b = f.Var(V(2));
  ExprId shared = f.And(a, b);
  ExprId top = f.Or(shared, f.Not(shared));
  // top is Or(x, !x) => true by cancellation!
  EXPECT_EQ(top, f.True());
  ExprId top2 = f.Or(shared, f.And(a, f.Not(b)));
  // nodes: a, b, and(a,b), !b, and(a,!b), or => 6.
  EXPECT_EQ(f.NodeCount(top2), 6u);
}

TEST(ExprTest, CollectVarsSortedAndDeduped) {
  ExprFactory f;
  ExprId e = f.And(f.Or(f.Var(V(2)), f.Var(V(1))),
                   f.Or(f.Var(V(1)), f.Var(DV(2))));
  std::vector<VarId> vars = f.CollectVars(e);
  ASSERT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars[0].ToString(), "v1.0");
  EXPECT_EQ(vars[1].ToString(), "v2.0");
  EXPECT_EQ(vars[2].ToString(), "dv2.0");
}

TEST(ExprTest, ToStringReadable) {
  ExprFactory f;
  ExprId e = f.And(f.Var(V(1)), f.Not(f.Var(DV(2))));
  std::string s = f.ToString(e);
  EXPECT_NE(s.find("v1.0"), std::string::npos);
  EXPECT_NE(s.find("!dv2.0"), std::string::npos);
  EXPECT_NE(s.find("&"), std::string::npos);
}

// ---------- Evaluation / substitution ----------

TEST(ExprEvalTest, FullAssignment) {
  ExprFactory f;
  ExprId e = f.Or(f.And(f.Var(V(1)), f.Var(V(2))), f.Not(f.Var(V(3))));
  Assignment a;
  a.Set(V(1), true);
  a.Set(V(2), false);
  a.Set(V(3), true);
  EXPECT_FALSE(*f.Eval(e, a));
  a.Set(V(2), true);
  EXPECT_TRUE(*f.Eval(e, a));
}

TEST(ExprEvalTest, MissingVariableIsUnresolved) {
  ExprFactory f;
  ExprId e = f.Var(V(1));
  Assignment empty;
  auto result = f.Eval(e, empty);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnresolved);
}

TEST(ExprEvalTest, KleeneShortCircuits) {
  ExprFactory f;
  Assignment a;
  a.Set(V(1), false);
  // false AND unknown == false; true OR unknown == true.
  EXPECT_EQ(f.EvalPartial(f.And(f.Var(V(1)), f.Var(V(2))), a), Tri::kFalse);
  a.Set(V(1), true);
  EXPECT_EQ(f.EvalPartial(f.Or(f.Var(V(1)), f.Var(V(2))), a), Tri::kTrue);
  EXPECT_EQ(f.EvalPartial(f.And(f.Var(V(1)), f.Var(V(2))), a),
            Tri::kUnknown);
  EXPECT_EQ(f.EvalPartial(f.Not(f.Var(V(2))), a), Tri::kUnknown);
}

TEST(ExprEvalTest, SubstituteReplacesAndSimplifies) {
  ExprFactory f;
  ExprId e = f.And(f.Var(V(1)), f.Or(f.Var(V(2)), f.Var(V(3))));
  Assignment a;
  a.Set(V(2), false);
  ExprId sub = f.Substitute(e, a);
  // (v1 & (false | v3)) == v1 & v3.
  EXPECT_EQ(sub, f.And(f.Var(V(1)), f.Var(V(3))));
  a.Set(V(1), true);
  a.Set(V(3), true);
  EXPECT_EQ(f.Substitute(e, a), f.True());
}

TEST(ExprEvalTest, SubstituteEmptyAssignmentIsIdentity) {
  ExprFactory f;
  ExprId e = f.Or(f.Var(V(1)), f.Not(f.Var(V(2))));
  Assignment empty;
  EXPECT_EQ(f.Substitute(e, empty), e);
}

// Property: EvalPartial under a total assignment equals Eval, and
// Substitute then Eval equals direct Eval, on random formulas.
class ExprPropertyTest : public ::testing::TestWithParam<uint64_t> {};

ExprId RandomExpr(ExprFactory* f, Rng* rng, int depth) {
  int pick = static_cast<int>(rng->Uniform(depth <= 0 ? 3 : 6));
  switch (pick) {
    case 0:
      return f->FromBool(rng->Bernoulli(0.5));
    case 1:
    case 2:
      return f->Var(V(static_cast<int32_t>(rng->Uniform(4)),
                      static_cast<int32_t>(rng->Uniform(3))));
    case 3:
      return f->Not(RandomExpr(f, rng, depth - 1));
    case 4:
      return f->And(RandomExpr(f, rng, depth - 1),
                    RandomExpr(f, rng, depth - 1));
    default:
      return f->Or(RandomExpr(f, rng, depth - 1),
                   RandomExpr(f, rng, depth - 1));
  }
}

TEST_P(ExprPropertyTest, SubstituteConsistentWithEval) {
  Rng rng(GetParam());
  ExprFactory f;
  for (int trial = 0; trial < 50; ++trial) {
    ExprId e = RandomExpr(&f, &rng, 5);
    Assignment full;
    for (int32_t frag = 0; frag < 4; ++frag) {
      for (int32_t idx = 0; idx < 3; ++idx) {
        full.Set(V(frag, idx), rng.Bernoulli(0.5));
        full.Set(DV(frag, idx), rng.Bernoulli(0.5));
      }
    }
    Result<bool> direct = f.Eval(e, full);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(f.EvalPartial(e, full),
              *direct ? Tri::kTrue : Tri::kFalse);
    ExprId substituted = f.Substitute(e, full);
    ASSERT_TRUE(f.is_const(substituted)) << f.ToString(substituted);
    EXPECT_EQ(f.const_value(substituted), *direct);
  }
}

TEST_P(ExprPropertyTest, SerializationRoundTrip) {
  Rng rng(GetParam() + 1000);
  ExprFactory source;
  std::vector<ExprId> roots;
  for (int i = 0; i < 10; ++i) {
    roots.push_back(RandomExpr(&source, &rng, 4));
  }
  std::string wire = SerializeExprs(source, roots);
  ExprFactory target;
  auto decoded = DeserializeExprs(&target, wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), roots.size());
  // Semantically identical: same value under every assignment we try.
  for (int trial = 0; trial < 20; ++trial) {
    Assignment a;
    for (int32_t frag = 0; frag < 4; ++frag) {
      for (int32_t idx = 0; idx < 3; ++idx) {
        a.Set(V(frag, idx), rng.Bernoulli(0.5));
        a.Set(DV(frag, idx), rng.Bernoulli(0.5));
      }
    }
    for (size_t i = 0; i < roots.size(); ++i) {
      EXPECT_EQ(*source.Eval(roots[i], a), *target.Eval((*decoded)[i], a));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

TEST(SerializeTest, EmptyRootsRoundTrip) {
  ExprFactory f;
  std::vector<ExprId> none;
  std::string wire = SerializeExprs(f, none);
  ExprFactory g;
  auto decoded = DeserializeExprs(&g, wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(SerializeTest, SharedStructureEncodedOnce) {
  ExprFactory f;
  ExprId x = f.Var(V(1));
  ExprId y = f.Var(V(2));
  ExprId shared = f.And(x, y);
  std::vector<ExprId> once = {shared};
  std::vector<ExprId> thrice = {shared, shared, shared};
  // Repeating a root costs only a back-reference, not a re-encode.
  EXPECT_LT(SerializeExprs(f, thrice).size(),
            3 * SerializeExprs(f, once).size());
}

TEST(SerializeTest, GarbageRejected) {
  ExprFactory f;
  EXPECT_FALSE(DeserializeExprs(&f, "\xff\xff\xff").ok());
  EXPECT_FALSE(DeserializeExprs(&f, "").ok());
  // Counts the remaining bytes cannot hold are rejected before anything
  // is reserved. 2^62 as a varint is nine bytes.
  const std::string huge("\x80\x80\x80\x80\x80\x80\x80\x80\x40", 9);
  EXPECT_FALSE(DeserializeExprs(&f, huge).ok());  // node count
  // Two nodes: const true, then an And with 2^62 children.
  EXPECT_FALSE(
      DeserializeExprs(&f, std::string("\x02\x00\x01\x03", 4) + huge).ok());
  // One node, then 2^62 roots.
  EXPECT_FALSE(
      DeserializeExprs(&f, std::string("\x01\x00\x01", 3) + huge).ok());
}

TEST(SerializeTest, TruncationRejected) {
  ExprFactory f;
  ExprId e = f.And(f.Var(V(1)), f.Var(V(2)));
  std::vector<ExprId> one = {e};
  std::string wire = SerializeExprs(f, one);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    ExprFactory g;
    EXPECT_FALSE(DeserializeExprs(&g, wire.substr(0, cut)).ok())
        << "prefix of length " << cut << " accepted";
  }
}

// ---------- Solver ----------

TEST(SolverTest, SingleFragmentSystem) {
  ExprFactory f;
  std::vector<FragmentEquations> eqs(1);
  eqs[0].fragment = 0;
  eqs[0].v = {f.True(), f.False()};
  eqs[0].cv = {f.False(), f.False()};
  eqs[0].dv = {f.True(), f.False()};
  std::vector<std::vector<int32_t>> children = {{}};
  auto answer = SolveForAnswer(&f, eqs, children, 0, 0);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(*answer);
  EXPECT_FALSE(*SolveForAnswer(&f, eqs, children, 0, 1));
}

TEST(SolverTest, ChainUnification) {
  // F0 <- F1 <- F2; F0's answer is F1's dv which is F2's v.
  ExprFactory f;
  std::vector<FragmentEquations> eqs(3);
  eqs[0].fragment = 0;
  eqs[0].v = {f.Var(DV(1))};
  eqs[0].cv = {f.Var(V(1))};
  eqs[0].dv = {f.Var(DV(1))};
  eqs[1].fragment = 1;
  eqs[1].v = {f.Var(V(2))};
  eqs[1].cv = {f.Var(V(2))};
  eqs[1].dv = {f.Var(V(2))};
  eqs[2].fragment = 2;
  eqs[2].v = {f.True()};
  eqs[2].cv = {f.False()};
  eqs[2].dv = {f.True()};
  std::vector<std::vector<int32_t>> children = {{1}, {2}, {}};
  auto assignment = SolveBottomUp(&f, eqs, children, 0);
  ASSERT_TRUE(assignment.ok()) << assignment.status().ToString();
  EXPECT_EQ(assignment->Get(V(0)), std::make_optional(true));
  EXPECT_EQ(assignment->Get(DV(1)), std::make_optional(true));
}

TEST(SolverTest, DanglingVariableFails) {
  ExprFactory f;
  std::vector<FragmentEquations> eqs(1);
  eqs[0].fragment = 0;
  eqs[0].v = {f.Var(V(42))};  // references a non-child fragment
  eqs[0].cv = {f.False()};
  eqs[0].dv = {f.False()};
  std::vector<std::vector<int32_t>> children = {{}};
  auto answer = SolveForAnswer(&f, eqs, children, 0, 0);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnresolved);
}

TEST(SolverTest, MisindexedEquationsFail) {
  ExprFactory f;
  std::vector<FragmentEquations> eqs(1);
  eqs[0].fragment = 5;  // wrong slot
  eqs[0].v = {f.True()};
  eqs[0].cv = {f.False()};
  eqs[0].dv = {f.True()};
  std::vector<std::vector<int32_t>> children = {{}};
  EXPECT_FALSE(SolveForAnswer(&f, eqs, children, 0, 0).ok());
}

TEST(SolverTest, PartialSolveReportsUnknownUntilDataArrives) {
  ExprFactory f;
  std::vector<FragmentEquations> eqs(2);
  eqs[0].fragment = 0;
  eqs[0].v = {f.Var(V(1))};
  eqs[0].cv = {f.Var(V(1))};
  eqs[0].dv = {f.Var(DV(1))};
  eqs[1].fragment = 1;
  eqs[1].v = {f.True()};
  eqs[1].cv = {f.False()};
  eqs[1].dv = {f.True()};
  std::vector<std::vector<int32_t>> children = {{1}, {}};

  std::vector<FragmentEquations> only_root = {eqs[0], {}};  // F1 a hole
  EXPECT_EQ(SolvePartial(&f, only_root, children, 0, 0), Tri::kUnknown);

  EXPECT_EQ(SolvePartial(&f, eqs, children, 0, 0), Tri::kTrue);
}

TEST(SolverTest, PartialSolveDeterminedWithoutChildren) {
  // Root's answer doesn't depend on the child: lazy can stop early.
  ExprFactory f;
  std::vector<FragmentEquations> eqs(2);
  eqs[0].fragment = 0;
  eqs[0].v = {f.Or(f.True(), f.Var(V(1)))};  // folds to true
  eqs[0].cv = {f.Var(V(1))};
  eqs[0].dv = {f.True()};
  std::vector<std::vector<int32_t>> children = {{1}, {}};
  // eqs[1] stays a hole.
  EXPECT_EQ(SolvePartial(&f, eqs, children, 0, 0), Tri::kTrue);
}

}  // namespace
}  // namespace parbox::bexpr

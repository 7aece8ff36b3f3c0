// Surface syntax tree for the Boolean XPath fragment XBL (Sec. 2.2):
//
//   q := p | p/text() = "str" | label() = A | not(q) | q and q | q or q
//   p := .  | A | * | p//p | p/p | p[q]
//
// The concrete grammar accepted by the parser additionally allows the
// common shorthand `p = "str"` for `p/text() = "str"` (used by the
// paper itself, e.g. [/portofolio/broker/name = "Merill Lynch"]), an
// optional surrounding [ ... ], a leading `/` or `//`, and `!q`.
//
// Nesting is bounded by kMaxQueryDepth. A parsed query's syntax tree is
// at most that many nodes deep, counting PathExpr and QualExpr nodes
// alike: a chain of n `and`/`or` terms, n `/`/`//` steps or n `[q]`
// qualifiers is at least n deep. The text also nests at most that many
// levels, counting each enclosing `(`, `not(` and `!` as one and each
// enclosing qualifier `[` as two (the optional surrounding [ ... ] does
// not count). ParseQuery rejects deeper input with a ParseError at the
// token that crosses the bound, so the parser, Normalize, the
// destructors, ToString/Clone and the reference evaluator, which all
// recurse once per level, stay within a fixed stack depth whatever the
// input. The bound admits the longest path the formula variables can
// address (bexpr::VarId: 4096 QList entries, a path of 1365 steps).
//
// Surface trees are an exchange format: evaluation always goes through
// the normalized form (normalize.h). A separate naive reference
// evaluator (reference_eval.h) interprets surface trees directly and
// serves as the correctness oracle in property tests.

#ifndef PARBOX_XPATH_AST_H_
#define PARBOX_XPATH_AST_H_

#include <memory>
#include <string>

namespace parbox::xpath {

/// The deepest query ParseQuery accepts (see the comment above).
inline constexpr int kMaxQueryDepth = 2048;

struct QualExpr;

enum class PathKind : uint8_t {
  kSelf,       ///< ǫ
  kLabel,      ///< A          (child step by label)
  kWildcard,   ///< *          (any element child)
  kChildSeq,   ///< p1 / p2
  kDescSeq,    ///< p1 // p2   (descendant-or-self between them)
  kQualified,  ///< p [ q ]
};

/// A path expression node.
struct PathExpr {
  PathKind kind;
  std::string label;              // kLabel
  std::unique_ptr<PathExpr> left;   // kChildSeq/kDescSeq/kQualified
  std::unique_ptr<PathExpr> right;  // kChildSeq/kDescSeq
  std::unique_ptr<QualExpr> qual;   // kQualified

  static std::unique_ptr<PathExpr> Self();
  static std::unique_ptr<PathExpr> Label(std::string label);
  static std::unique_ptr<PathExpr> Wildcard();
  static std::unique_ptr<PathExpr> Child(std::unique_ptr<PathExpr> l,
                                         std::unique_ptr<PathExpr> r);
  static std::unique_ptr<PathExpr> Desc(std::unique_ptr<PathExpr> l,
                                        std::unique_ptr<PathExpr> r);
  static std::unique_ptr<PathExpr> Qualified(std::unique_ptr<PathExpr> p,
                                             std::unique_ptr<QualExpr> q);

  std::unique_ptr<PathExpr> Clone() const;
};

enum class QualKind : uint8_t {
  kPath,        ///< p          (some node reachable via p)
  kTextEquals,  ///< p/text() = "str"
  kLabelEquals, ///< label() = A
  kNot,
  kAnd,
  kOr,
};

/// A Boolean qualifier node; a whole XBL query is a QualExpr.
struct QualExpr {
  QualKind kind;
  std::unique_ptr<PathExpr> path;  // kPath/kTextEquals
  std::string str;                 // kTextEquals value / kLabelEquals label
  std::unique_ptr<QualExpr> a;     // kNot/kAnd/kOr
  std::unique_ptr<QualExpr> b;     // kAnd/kOr

  static std::unique_ptr<QualExpr> Path(std::unique_ptr<PathExpr> p);
  static std::unique_ptr<QualExpr> TextEquals(std::unique_ptr<PathExpr> p,
                                              std::string value);
  static std::unique_ptr<QualExpr> LabelEquals(std::string label);
  static std::unique_ptr<QualExpr> Not(std::unique_ptr<QualExpr> q);
  static std::unique_ptr<QualExpr> And(std::unique_ptr<QualExpr> a,
                                       std::unique_ptr<QualExpr> b);
  static std::unique_ptr<QualExpr> Or(std::unique_ptr<QualExpr> a,
                                      std::unique_ptr<QualExpr> b);

  std::unique_ptr<QualExpr> Clone() const;
};

/// Round-trippable rendering in the concrete syntax, e.g.
/// `[//stock[code = "goog" and not(sell = "376")]]`.
std::string ToString(const PathExpr& p);
std::string ToString(const QualExpr& q);

}  // namespace parbox::xpath

#endif  // PARBOX_XPATH_AST_H_

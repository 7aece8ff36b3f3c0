#include "xpath/parser.h"

#include <algorithm>
#include <vector>

#include "xpath/lexer.h"

namespace parbox::xpath {

namespace {

using QualPtr = std::unique_ptr<QualExpr>;
using PathPtr = std::unique_ptr<PathExpr>;

/// A parsed subtree and its height: the nodes on its longest
/// root-to-leaf path (a leaf is 1).
template <typename T>
struct Sub {
  std::unique_ptr<T> node;
  int height = 1;
};
using Qual = Sub<QualExpr>;
using Path = Sub<PathExpr>;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QualPtr> Parse() {
    bool bracketed = Accept(TokenKind::kLBracket);
    PARBOX_ASSIGN_OR_RETURN(Qual q, ParseOr());
    if (bracketed && !Accept(TokenKind::kRBracket)) {
      return Fail("expected closing ']'");
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Fail("trailing tokens after query");
    }
    return std::move(q.node);
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool Accept(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (Peek().kind != TokenKind::kName || Peek().text != kw) return false;
    ++pos_;
    return true;
  }
  Status Fail(const std::string& what) const {
    return Status::ParseError(what + " at offset " +
                              std::to_string(Peek().offset));
  }
  static Status TooDeep(size_t offset) {
    return Status::ParseError("query nested deeper than " +
                              std::to_string(kMaxQueryDepth) +
                              " levels at offset " + std::to_string(offset));
  }

  /// Opens `levels` of nesting at the token at `offset`: one for `(`,
  /// `not(` and `!`, two for a qualifier `[`, which always adds two
  /// tree levels. The caller closes them with depth_ -= levels.
  Status Enter(size_t offset, int levels = 1) {
    depth_ += levels;
    if (depth_ > kMaxQueryDepth) return TooDeep(offset);
    return Status::OK();
  }

  /// `node` as a subtree of `height`, built at the token at `offset`:
  /// the bound on the syntax tree's depth (ast.h).
  template <typename T>
  static Result<Sub<T>> Make(std::unique_ptr<T> node, int height,
                             size_t offset) {
    if (height > kMaxQueryDepth) return TooDeep(offset);
    return Sub<T>{std::move(node), height};
  }

  Result<Qual> ParseOr() {
    PARBOX_ASSIGN_OR_RETURN(Qual left, ParseAnd());
    for (size_t at = Peek().offset; AcceptKeyword("or"); at = Peek().offset) {
      PARBOX_ASSIGN_OR_RETURN(Qual right, ParseAnd());
      const int height = 1 + std::max(left.height, right.height);
      PARBOX_ASSIGN_OR_RETURN(
          left, Make(QualExpr::Or(std::move(left.node), std::move(right.node)),
                     height, at));
    }
    return left;
  }

  Result<Qual> ParseAnd() {
    PARBOX_ASSIGN_OR_RETURN(Qual left, ParseUnary());
    for (size_t at = Peek().offset; AcceptKeyword("and");
         at = Peek().offset) {
      PARBOX_ASSIGN_OR_RETURN(Qual right, ParseUnary());
      const int height = 1 + std::max(left.height, right.height);
      PARBOX_ASSIGN_OR_RETURN(
          left, Make(QualExpr::And(std::move(left.node), std::move(right.node)),
                     height, at));
    }
    return left;
  }

  Result<Qual> ParseUnary() {
    const size_t at = Peek().offset;
    const bool bang = Accept(TokenKind::kBang);
    if (bang || (Peek().kind == TokenKind::kName && Peek().text == "not" &&
                 Peek(1).kind == TokenKind::kLParen)) {
      PARBOX_RETURN_IF_ERROR(Enter(at));
      Qual inner;
      if (bang) {
        PARBOX_ASSIGN_OR_RETURN(inner, ParseUnary());
      } else {
        pos_ += 2;
        PARBOX_ASSIGN_OR_RETURN(inner, ParseOr());
        if (!Accept(TokenKind::kRParen)) return Fail("expected ')'");
      }
      --depth_;
      return Make(QualExpr::Not(std::move(inner.node)), inner.height + 1, at);
    }
    if (Accept(TokenKind::kLParen)) {
      PARBOX_RETURN_IF_ERROR(Enter(at));
      PARBOX_ASSIGN_OR_RETURN(Qual inner, ParseOr());
      if (!Accept(TokenKind::kRParen)) return Fail("expected ')'");
      --depth_;
      return inner;
    }
    return ParseComparison();
  }

  Result<Qual> ParseComparison() {
    const size_t at = Peek().offset;
    if (Accept(TokenKind::kLabelFn)) {
      if (!Accept(TokenKind::kEquals)) {
        return Fail("expected '=' after label()");
      }
      PARBOX_ASSIGN_OR_RETURN(std::string_view value, ParseValue());
      return Qual{QualExpr::LabelEquals(std::string(value))};
    }
    // A path, optionally ending in `/text() = v` or `= v`.
    bool text_test = false;
    PARBOX_ASSIGN_OR_RETURN(Path path, ParsePath(&text_test));
    if (text_test || Peek().kind == TokenKind::kEquals) {
      if (!Accept(TokenKind::kEquals)) {
        return Fail("expected '=' after text()");
      }
      PARBOX_ASSIGN_OR_RETURN(std::string_view value, ParseValue());
      return Make(
          QualExpr::TextEquals(std::move(path.node), std::string(value)),
          path.height + 1, at);
    }
    return Make(QualExpr::Path(std::move(path.node)), path.height + 1, at);
  }

  Result<std::string_view> ParseValue() {
    if (Peek().kind == TokenKind::kString || Peek().kind == TokenKind::kName) {
      return tokens_[pos_++].text;
    }
    return Fail("expected a string or name after '='");
  }

  /// `/A/...` evaluated at the tree root means "the root element is
  /// labelled A" (document-node semantics, as in the paper's
  /// [/portofolio/broker/...]). Rewrite the first step: its innermost
  /// base `A` becomes `.[label() = A]` (one node deeper); `*` and `.`
  /// become `.`.
  static PathPtr AbsolutizeFirstStep(PathPtr step) {
    PathExpr* base = step.get();
    while (base->kind == PathKind::kQualified) base = base->left.get();
    switch (base->kind) {
      case PathKind::kLabel: {
        auto replacement = PathExpr::Qualified(
            PathExpr::Self(), QualExpr::LabelEquals(base->label));
        *base = std::move(*replacement);
        break;
      }
      case PathKind::kWildcard:
        *base = std::move(*PathExpr::Self());
        break;
      default:
        break;  // '.' stays; composite steps cannot be first
    }
    return step;
  }

  /// Parses a path. Sets *ends_in_text_fn if the path's final step was
  /// `text()` (the caller must then consume `= value`).
  Result<Path> ParsePath(bool* ends_in_text_fn) {
    *ends_in_text_fn = false;
    Path path;
    // Leading separators, with the evaluation root as context node:
    // '//' is `self-or-descendant/...`; '/' addresses the root element
    // itself (see AbsolutizeFirstStep).
    const size_t start = Peek().offset;
    if (Accept(TokenKind::kDoubleSlash)) {
      PARBOX_ASSIGN_OR_RETURN(Path step, ParseStep());
      PARBOX_ASSIGN_OR_RETURN(
          path, Make(PathExpr::Desc(PathExpr::Self(), std::move(step.node)),
                     step.height + 1, start));
    } else if (Accept(TokenKind::kSlash)) {
      PARBOX_ASSIGN_OR_RETURN(Path step, ParseStep());
      PARBOX_ASSIGN_OR_RETURN(
          path, Make(AbsolutizeFirstStep(std::move(step.node)),
                     step.height + 1, start));
    } else {
      PARBOX_ASSIGN_OR_RETURN(path, ParseStep());
    }
    for (;;) {
      const size_t at = Peek().offset;
      bool desc;
      if (Accept(TokenKind::kSlash)) {
        desc = false;
      } else if (Accept(TokenKind::kDoubleSlash)) {
        desc = true;
      } else {
        break;
      }
      if (!desc && Accept(TokenKind::kTextFn)) {
        *ends_in_text_fn = true;
        return path;
      }
      PARBOX_ASSIGN_OR_RETURN(Path step, ParseStep());
      const int height = 1 + std::max(path.height, step.height);
      PathPtr joined =
          desc ? PathExpr::Desc(std::move(path.node), std::move(step.node))
               : PathExpr::Child(std::move(path.node), std::move(step.node));
      PARBOX_ASSIGN_OR_RETURN(path, Make(std::move(joined), height, at));
    }
    return path;
  }

  /// One step: name | * | . , followed by zero or more [qualifier].
  Result<Path> ParseStep() {
    Path step;
    if (Accept(TokenKind::kStar)) {
      step.node = PathExpr::Wildcard();
    } else if (Accept(TokenKind::kDot)) {
      step.node = PathExpr::Self();
    } else if (Peek().kind == TokenKind::kName) {
      const std::string_view name = Peek().text;
      if (name == "and" || name == "or" || name == "not") {
        return Fail("'" + std::string(name) +
                    "' is a reserved word, not a label");
      }
      step.node = PathExpr::Label(std::string(name));
      ++pos_;
    } else {
      return Fail("expected a path step (label, '*' or '.')");
    }
    for (size_t at = Peek().offset; Accept(TokenKind::kLBracket);
         at = Peek().offset) {
      PARBOX_RETURN_IF_ERROR(Enter(at, 2));
      PARBOX_ASSIGN_OR_RETURN(Qual qual, ParseOr());
      if (!Accept(TokenKind::kRBracket)) return Fail("expected ']'");
      depth_ -= 2;
      const int height = 1 + std::max(step.height, qual.height);
      PARBOX_ASSIGN_OR_RETURN(
          step, Make(PathExpr::Qualified(std::move(step.node),
                                         std::move(qual.node)),
                     height, at));
    }
    return step;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< open nesting levels (see Enter)
};

}  // namespace

Result<QualPtr> ParseQuery(std::string_view input) {
  PARBOX_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace parbox::xpath

#include "xpath/ast.h"

#include "xpath/lexer.h"

namespace parbox::xpath {

std::unique_ptr<PathExpr> PathExpr::Self() {
  auto p = std::make_unique<PathExpr>();
  p->kind = PathKind::kSelf;
  return p;
}

std::unique_ptr<PathExpr> PathExpr::Label(std::string label) {
  auto p = std::make_unique<PathExpr>();
  p->kind = PathKind::kLabel;
  p->label = std::move(label);
  return p;
}

std::unique_ptr<PathExpr> PathExpr::Wildcard() {
  auto p = std::make_unique<PathExpr>();
  p->kind = PathKind::kWildcard;
  return p;
}

std::unique_ptr<PathExpr> PathExpr::Child(std::unique_ptr<PathExpr> l,
                                          std::unique_ptr<PathExpr> r) {
  auto p = std::make_unique<PathExpr>();
  p->kind = PathKind::kChildSeq;
  p->left = std::move(l);
  p->right = std::move(r);
  return p;
}

std::unique_ptr<PathExpr> PathExpr::Desc(std::unique_ptr<PathExpr> l,
                                         std::unique_ptr<PathExpr> r) {
  auto p = std::make_unique<PathExpr>();
  p->kind = PathKind::kDescSeq;
  p->left = std::move(l);
  p->right = std::move(r);
  return p;
}

std::unique_ptr<PathExpr> PathExpr::Qualified(std::unique_ptr<PathExpr> path,
                                              std::unique_ptr<QualExpr> q) {
  auto p = std::make_unique<PathExpr>();
  p->kind = PathKind::kQualified;
  p->left = std::move(path);
  p->qual = std::move(q);
  return p;
}

std::unique_ptr<PathExpr> PathExpr::Clone() const {
  auto p = std::make_unique<PathExpr>();
  p->kind = kind;
  p->label = label;
  if (left) p->left = left->Clone();
  if (right) p->right = right->Clone();
  if (qual) p->qual = qual->Clone();
  return p;
}

std::unique_ptr<QualExpr> QualExpr::Path(std::unique_ptr<PathExpr> p) {
  auto q = std::make_unique<QualExpr>();
  q->kind = QualKind::kPath;
  q->path = std::move(p);
  return q;
}

std::unique_ptr<QualExpr> QualExpr::TextEquals(std::unique_ptr<PathExpr> p,
                                               std::string value) {
  auto q = std::make_unique<QualExpr>();
  q->kind = QualKind::kTextEquals;
  q->path = std::move(p);
  q->str = std::move(value);
  return q;
}

std::unique_ptr<QualExpr> QualExpr::LabelEquals(std::string label) {
  auto q = std::make_unique<QualExpr>();
  q->kind = QualKind::kLabelEquals;
  q->str = std::move(label);
  return q;
}

std::unique_ptr<QualExpr> QualExpr::Not(std::unique_ptr<QualExpr> inner) {
  auto q = std::make_unique<QualExpr>();
  q->kind = QualKind::kNot;
  q->a = std::move(inner);
  return q;
}

std::unique_ptr<QualExpr> QualExpr::And(std::unique_ptr<QualExpr> a,
                                        std::unique_ptr<QualExpr> b) {
  auto q = std::make_unique<QualExpr>();
  q->kind = QualKind::kAnd;
  q->a = std::move(a);
  q->b = std::move(b);
  return q;
}

std::unique_ptr<QualExpr> QualExpr::Or(std::unique_ptr<QualExpr> a,
                                       std::unique_ptr<QualExpr> b) {
  auto q = std::make_unique<QualExpr>();
  q->kind = QualKind::kOr;
  q->a = std::move(a);
  q->b = std::move(b);
  return q;
}

std::unique_ptr<QualExpr> QualExpr::Clone() const {
  auto q = std::make_unique<QualExpr>();
  q->kind = kind;
  q->str = str;
  if (path) q->path = path->Clone();
  if (a) q->a = a->Clone();
  if (b) q->b = b->Clone();
  return q;
}

namespace {

/// A literal the parser reads back as `s`: quoted with `"` unless `s`
/// holds one (a parsed literal never holds both quote characters).
void RenderLiteral(const std::string& s, std::string* out) {
  const char quote = s.find('"') == std::string::npos ? '"' : '\'';
  *out += quote;
  *out += s;
  *out += quote;
}

/// `label() = A` renders A bare when it lexes as one name.
void RenderLabelValue(const std::string& s, std::string* out) {
  Result<std::vector<Token>> tokens = Tokenize(s);
  if (tokens.ok() && tokens->size() == 2 &&
      (*tokens)[0].kind == TokenKind::kName && (*tokens)[0].text == s) {
    *out += s;
  } else {
    RenderLiteral(s, out);
  }
}

void Render(const PathExpr& p, std::string* out);

void Render(const QualExpr& q, std::string* out) {
  switch (q.kind) {
    case QualKind::kPath:
      Render(*q.path, out);
      break;
    case QualKind::kTextEquals:
      Render(*q.path, out);
      *out += "/text() = ";
      RenderLiteral(q.str, out);
      break;
    case QualKind::kLabelEquals:
      *out += "label() = ";
      RenderLabelValue(q.str, out);
      break;
    case QualKind::kNot:
      *out += "not(";
      Render(*q.a, out);
      *out += ")";
      break;
    case QualKind::kAnd:
    case QualKind::kOr:
      *out += "(";
      Render(*q.a, out);
      *out += q.kind == QualKind::kAnd ? " and " : " or ";
      Render(*q.b, out);
      *out += ")";
      break;
  }
}

void Render(const PathExpr& p, std::string* out) {
  switch (p.kind) {
    case PathKind::kSelf:
      *out += ".";
      break;
    case PathKind::kLabel:
      *out += p.label;
      break;
    case PathKind::kWildcard:
      *out += "*";
      break;
    case PathKind::kChildSeq:
      Render(*p.left, out);
      *out += "/";
      Render(*p.right, out);
      break;
    case PathKind::kDescSeq:
      Render(*p.left, out);
      *out += "//";
      Render(*p.right, out);
      break;
    case PathKind::kQualified:
      Render(*p.left, out);
      *out += "[";
      Render(*p.qual, out);
      *out += "]";
      break;
  }
}

}  // namespace

std::string ToString(const PathExpr& p) {
  std::string out;
  Render(p, &out);
  return out;
}

std::string ToString(const QualExpr& q) {
  std::string out = "[";
  Render(q, &out);
  out += "]";
  return out;
}

}  // namespace parbox::xpath

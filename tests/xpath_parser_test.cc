#include <gtest/gtest.h>

#include <string>

#include "xml/parser.h"
#include "xpath/ast.h"
#include "xpath/fingerprint.h"
#include "xpath/lexer.h"
#include "xpath/normalize.h"
#include "xpath/parser.h"
#include "xpath/reference_eval.h"

namespace parbox::xpath {
namespace {

// ---------- Lexer ----------

TEST(LexerTest, AllTokenKinds) {
  auto tokens = Tokenize("[ ] ( ) / // * . = ! name \"str\" text() label()");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kLBracket, TokenKind::kRBracket, TokenKind::kLParen,
                TokenKind::kRParen, TokenKind::kSlash, TokenKind::kDoubleSlash,
                TokenKind::kStar, TokenKind::kDot, TokenKind::kEquals,
                TokenKind::kBang, TokenKind::kName, TokenKind::kString,
                TokenKind::kTextFn, TokenKind::kLabelFn, TokenKind::kEnd}));
}

TEST(LexerTest, SingleAndDoubleQuotes) {
  auto tokens = Tokenize("'single' \"double\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "single");
  EXPECT_EQ((*tokens)[1].text, "double");
}

TEST(LexerTest, TextAsLabelWhenNotFunction) {
  auto tokens = Tokenize("text");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kName);
  EXPECT_EQ((*tokens)[0].text, "text");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("\"oops").ok());
}

TEST(LexerTest, UnknownCharacterFails) {
  auto result = Tokenize("a § b");
  EXPECT_FALSE(result.ok());
}

// ---------- Parser: structure ----------

std::unique_ptr<QualExpr> MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text << " -> " << q.status().ToString();
  return q.ok() ? std::move(*q) : nullptr;
}

TEST(QueryParserTest, SimplePath) {
  auto q = MustParse("a/b");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->kind, QualKind::kPath);
  EXPECT_EQ(q->path->kind, PathKind::kChildSeq);
}

TEST(QueryParserTest, OptionalBrackets) {
  EXPECT_EQ(ToString(*MustParse("[//a]")), ToString(*MustParse("//a")));
}

TEST(QueryParserTest, LeadingSlashAddressesTheRootElement) {
  // Document-node semantics: /portofolio tests the root's own label.
  auto q = MustParse("/portofolio/broker");
  EXPECT_EQ(ToString(*q), "[.[label() = portofolio]/broker]");
}

TEST(QueryParserTest, LeadingSlashWildcardIsSelf) {
  auto q = MustParse("/*/a");
  EXPECT_EQ(ToString(*q), "[./a]");
}

TEST(QueryParserTest, LeadingDoubleSlash) {
  auto q = MustParse("//stock");
  ASSERT_EQ(q->kind, QualKind::kPath);
  EXPECT_EQ(q->path->kind, PathKind::kDescSeq);
  EXPECT_EQ(q->path->left->kind, PathKind::kSelf);
}

TEST(QueryParserTest, TextFunctionComparison) {
  auto q = MustParse("[//code/text() = \"GOOG\"]");
  EXPECT_EQ(q->kind, QualKind::kTextEquals);
  EXPECT_EQ(q->str, "GOOG");
}

TEST(QueryParserTest, EqualsSugarMeansTextEquals) {
  auto q = MustParse("[name = \"Bache\"]");
  EXPECT_EQ(q->kind, QualKind::kTextEquals);
  EXPECT_EQ(q->str, "Bache");
}

TEST(QueryParserTest, UnquotedValueAfterEquals) {
  auto q = MustParse("[code = GOOG]");
  EXPECT_EQ(q->kind, QualKind::kTextEquals);
  EXPECT_EQ(q->str, "GOOG");
}

TEST(QueryParserTest, LabelFunction) {
  auto q = MustParse("[label() = stock]");
  EXPECT_EQ(q->kind, QualKind::kLabelEquals);
  EXPECT_EQ(q->str, "stock");
}

TEST(QueryParserTest, BooleanPrecedenceOrBelowAnd) {
  auto q = MustParse("[a or b and c]");
  ASSERT_EQ(q->kind, QualKind::kOr);
  EXPECT_EQ(q->b->kind, QualKind::kAnd);
}

TEST(QueryParserTest, ParenthesesOverridePrecedence) {
  auto q = MustParse("[(a or b) and c]");
  ASSERT_EQ(q->kind, QualKind::kAnd);
  EXPECT_EQ(q->a->kind, QualKind::kOr);
}

TEST(QueryParserTest, NotFunctionAndBang) {
  auto q1 = MustParse("[not(a)]");
  auto q2 = MustParse("[!a]");
  EXPECT_EQ(q1->kind, QualKind::kNot);
  EXPECT_EQ(ToString(*q1), ToString(*q2));
}

TEST(QueryParserTest, QualifiersNest) {
  auto q = MustParse("[//broker[//stock/code/text() = \"GOOG\" and "
                     "not(//stock/code/text() = \"YHOO\")]]");
  ASSERT_EQ(q->kind, QualKind::kPath);
  ASSERT_EQ(q->path->kind, PathKind::kDescSeq);
  EXPECT_EQ(q->path->right->kind, PathKind::kQualified);
}

TEST(QueryParserTest, MultipleQualifiersOnOneStep) {
  auto q = MustParse("[a[b][c]]");
  ASSERT_EQ(q->kind, QualKind::kPath);
  const PathExpr* p = q->path.get();
  ASSERT_EQ(p->kind, PathKind::kQualified);
  EXPECT_EQ(p->left->kind, PathKind::kQualified);
}

TEST(QueryParserTest, WildcardAndSelfSteps) {
  auto q = MustParse("[*/./a]");
  EXPECT_EQ(q->kind, QualKind::kPath);
  EXPECT_EQ(ToString(*q), "[*/./a]");
}

TEST(QueryParserTest, PaperQueriesParse) {
  MustParse("[//stock[code = \"GOOG\" and sell = \"376\"]]");
  MustParse("[/portofolio/broker/name = \"Merill Lynch\"]");
  MustParse("[//stock[code/text() = \"YHOO\"]]");
}

// ---------- Parser: errors ----------

class QueryParserErrorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(QueryParserErrorTest, Rejected) {
  auto q = ParseQuery(GetParam());
  EXPECT_FALSE(q.ok()) << "accepted: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, QueryParserErrorTest,
    ::testing::Values("", "[", "[a", "a]", "[a and]", "[and a]", "[not a]",
                      "[a or]", "a//", "a/", "[a[b]", "(a", "[label() stock]",
                      "[//a/text()]", "[a = ]", "[not]", "[or]", "//[a]",
                      "a b"));

TEST(QueryParserTest, ReservedWordsRejectedAsLabels) {
  EXPECT_FALSE(ParseQuery("[//and]").ok());
  EXPECT_FALSE(ParseQuery("[//or]").ok());
  EXPECT_FALSE(ParseQuery("[not/x]").ok());
}

// ---------- ToString round trip ----------

class QueryToStringTest : public ::testing::TestWithParam<const char*> {};

TEST_P(QueryToStringTest, ParseRenderParseFixpoint) {
  auto q1 = ParseQuery(GetParam());
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  std::string rendered = ToString(**q1);
  auto q2 = ParseQuery(rendered);
  ASSERT_TRUE(q2.ok()) << rendered << " -> " << q2.status().ToString();
  EXPECT_EQ(ToString(**q2), rendered);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, QueryToStringTest,
    ::testing::Values("[//a]", "[a/b//c]", "[a[b = \"x\"] and not(c)]",
                      "[label() = z or //y/text() = \"v\"]",
                      "[*[.//q] or (a and b)]",
                      "[//stock[code = \"GOOG\" and sell = \"376\"]]"));

// ---------- Nesting bound ----------

std::string Repeat(std::string_view s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// `n` terms joined by " and ": a left-deep chain n tree levels deep.
std::string AndChain(int n) {
  std::string out = "a";
  for (int i = 1; i < n; ++i) out += " and a";
  return out;
}

/// Checks the input is rejected with a ParseError at `offset`.
void ExpectTooDeep(const std::string& text, size_t offset) {
  auto q = CompileQuery(text);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  EXPECT_NE(q.status().message().find("nested deeper than"),
            std::string::npos)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find(" at offset " + std::to_string(offset)),
            std::string::npos)
      << q.status().ToString();
}

// Each input below overflowed the stack (SIGSEGV) before the bound.
TEST(QueryDepthTest, NestedGroupsRejected) {
  // 10,000 '(' (20 KB): the first one past the bound is at its index.
  ExpectTooDeep(Repeat("(", 10000) + "a" + Repeat(")", 10000),
                kMaxQueryDepth);
}

TEST(QueryDepthTest, NestedNotRejected) {
  ExpectTooDeep(Repeat("not(", 10000) + "a" + Repeat(")", 10000),
                4 * kMaxQueryDepth);
}

TEST(QueryDepthTest, NestedQualifiersRejected) {
  // A qualifier counts two levels: the '[' of step kMaxQueryDepth/2 + 1.
  ExpectTooDeep(Repeat("a[", 10000) + "a" + Repeat("]", 10000),
                2 * (kMaxQueryDepth / 2) + 1);
}

TEST(QueryDepthTest, LongAndChainRejected) {
  // Term i sits at 6i, and the `and` before it at 6i - 4: the chain's
  // tree outgrows the bound at term kMaxQueryDepth - 1.
  ExpectTooDeep(AndChain(100000), 6 * (kMaxQueryDepth - 1) - 4);
}

TEST(QueryDepthTest, DeepestAcceptedQueriesStayWithinTheStack) {
  auto doc = xml::ParseXml("<a><a>t</a></a>");
  ASSERT_TRUE(doc.ok());
  std::string path = "a";
  for (int i = 2; i < kMaxQueryDepth - 1; ++i) path += "/a";
  const int nots = kMaxQueryDepth - 2;
  const int quals = (kMaxQueryDepth - 2) / 2;
  for (const std::string& text :
       {Repeat("(", kMaxQueryDepth) + "a" + Repeat(")", kMaxQueryDepth),
        Repeat("not(", nots) + "a" + Repeat(")", nots),
        Repeat("!", nots) + "a",
        Repeat("a[", quals) + "a" + Repeat("]", quals),
        AndChain(kMaxQueryDepth - 1), path}) {
    SCOPED_TRACE(text.substr(0, 16));
    auto ast = ParseQuery(text);
    ASSERT_TRUE(ast.ok()) << ast.status().ToString();
    const NormQuery q = Normalize(**ast);
    EXPECT_TRUE(q.IsWellFormed());
    ReferenceEval(**ast, *doc->root());
    const std::string rendered = ToString(*(*ast)->Clone());
    auto again = CompileQuery(rendered);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(FingerprintQuery(*again), FingerprintQuery(q));
  }
}

}  // namespace
}  // namespace parbox::xpath

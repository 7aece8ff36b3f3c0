// Seeded mutation fuzzer for the XPath front end: lexer, parser,
// normalizer and fingerprint.
//
// Seeds are the serving benchmark's query texts (the 64 hot_read
// family members and cold_read-style reads), the paper's queries and
// the parser tests' inputs. Each trial stacks one to four mutations on
// a seed — byte flips, inserts, deletes, splices of another seed and
// nesting expansions, some deep enough to cross kMaxQueryDepth — and
// checks three properties:
//
//   * nothing crashes (CI runs this under ASan and UBSan);
//   * a failure is a ParseError naming an offset within the input
//     (the end of the input included);
//   * a success is well-formed, and compiling its rendering
//     ToString(*ParseQuery(text)) yields the same fingerprint.
//
// Tokens are views into the text being parsed, so every input is
// parsed out of a heap buffer of exactly its size that is freed before
// the results are used: a read past the text, or a view that outlives
// it, is an ASan report rather than a silent pass.
//
// The trial budget is fixed per seed and scaled by PARBOX_TEST_TRIALS.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "testutil.h"
#include "xmark/portfolio.h"
#include "xpath/ast.h"
#include "xpath/fingerprint.h"
#include "xpath/normalize.h"
#include "xpath/parser.h"

namespace parbox::xpath {
namespace {

/// Inputs that once broke a property, minimized; checked before any
/// mutant. (The inputs that overflowed the stack are too large to list
/// here; xpath_parser_test's QueryDepthTest builds them.)
const char* const kRegressions[] = {
    // ToString rendered a literal holding `"` inside `"` quotes.
    "[a = 'x\"y']",
    "[label() = 'say \"hi\"']",
    // ToString rendered label() values that are not one name bare.
    "[label() = \"a b\"]",
    "[label() = \"\"]",
    "[label() = \"7\"]",
    "[label() = \"text()\"]",
    "[label() = 'not(']",
    // Names that are keywords elsewhere.
    "[label() = and]",
    "[text = label]",
    "[text/label = text]",
};

std::vector<std::string> Seeds() {
  std::vector<std::string> seeds = testutil::HotReadFamilyTexts();
  for (std::string& text : testutil::ColdReadStyleTexts(3, 32)) {
    seeds.push_back(std::move(text));
  }
  for (const char* text :
       {xmark::kGoogSellQuery, xmark::kYhooQuery, xmark::kMerillQuery}) {
    seeds.emplace_back(text);
  }
  for (const char* text : {
           "[ ] ( ) / // * . = ! name \"str\" text() label()",
           "'single' \"double\"",
           "a/b",
           "[//a]",
           "/portofolio/broker",
           "/*/a",
           "[//code/text() = \"GOOG\"]",
           "[name = \"Bache\"]",
           "[code = GOOG]",
           "[label() = stock]",
           "[a or b and c]",
           "[(a or b) and c]",
           "[not(a)]",
           "[!a]",
           "[//broker[//stock/code/text() = \"GOOG\" and "
           "not(//stock/code/text() = \"YHOO\")]]",
           "[a[b][c]]",
           "[*/./a]",
           "[//stock[code = \"GOOG\" and sell = \"376\"]]",
           "[/portofolio/broker/name = \"Merill Lynch\"]",
           "[a/b//c]",
           "[a[b = \"x\"] and not(c)]",
           "[label() = z or //y/text() = \"v\"]",
           "[*[.//q] or (a and b)]",
           "[a and]",
           "[label() stock]",
           "[//a/text()]",
           "//[a]",
           "[not/x]",
       }) {
    seeds.emplace_back(text);
  }
  return seeds;
}

/// The offset a ParseError names: the number after its last
/// " at offset ".
bool ErrorOffset(const Status& status, size_t* offset) {
  static constexpr std::string_view kAt = " at offset ";
  const std::string& message = status.message();
  const size_t at = message.rfind(kAt);
  if (at == std::string::npos) return false;
  const std::string digits = message.substr(at + kAt.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *offset = std::stoull(digits);
  return true;
}

/// Checks every property on `input`; returns whether it compiled.
bool CheckInput(const std::string& input) {
  auto buffer = std::make_unique<char[]>(input.size());
  std::memcpy(buffer.get(), input.data(), input.size());
  const std::string_view text(buffer.get(), input.size());
  Result<NormQuery> compiled = CompileQuery(text);
  Result<std::unique_ptr<QualExpr>> parsed = ParseQuery(text);
  buffer.reset();

  EXPECT_EQ(compiled.ok(), parsed.ok()) << input;
  if (!compiled.ok()) {
    const Status& status = compiled.status();
    EXPECT_EQ(status.code(), StatusCode::kParseError)
        << input << ": " << status.ToString();
    size_t offset = 0;
    EXPECT_TRUE(ErrorOffset(status, &offset))
        << input << ": " << status.ToString();
    EXPECT_LE(offset, input.size()) << input << ": " << status.ToString();
    return false;
  }
  if (!parsed.ok()) return false;
  EXPECT_TRUE(compiled->IsWellFormed()) << input;
  const std::string rendered = ToString(**parsed);
  Result<NormQuery> again = CompileQuery(rendered);
  EXPECT_TRUE(again.ok()) << input << " rendered as " << rendered << ": "
                          << again.status().ToString();
  if (again.ok()) {
    EXPECT_EQ(FingerprintQuery(*again), FingerprintQuery(*compiled))
        << input << " rendered as " << rendered;
  }
  return true;
}

/// Fragments a mutation inserts: every token kind, keywords, quotes,
/// and a few raw bytes.
const char* const kSnippets[] = {
    "[",     "]",      "(",        ")",  "/",     "//",   "*",   ".",
    "=",     "!",      " and ",    " or ", "not(", "not", "text()",
    "label()", "\"",   "'",        "a",  "@x",    "\"s\"", "'t'", " ",
    "-",     ":",      "\t",       "\x01", "\xff", "0",
};

std::string Mutate(std::string text, const std::vector<std::string>& seeds,
                   Rng* rng) {
  auto pos = [&](size_t extra) {
    return static_cast<size_t>(rng->Uniform(text.size() + extra));
  };
  switch (rng->Uniform(6)) {
    case 0:  // flip one byte
      if (!text.empty()) {
        text[pos(0)] = static_cast<char>(rng->Uniform(256));
      }
      break;
    case 1:  // insert a snippet
      text.insert(pos(1), kSnippets[rng->Uniform(std::size(kSnippets))]);
      break;
    case 2: {  // delete a short range
      if (text.empty()) break;
      const size_t at = pos(0);
      text.erase(at, 1 + rng->Uniform(8));
      break;
    }
    case 3: {  // splice in a slice of another seed
      const std::string& other = seeds[rng->Uniform(seeds.size())];
      const size_t from = rng->Uniform(other.size() + 1);
      const size_t len = rng->Uniform(other.size() - from + 1);
      text.insert(pos(1), other, from, len);
      break;
    }
    case 4: {  // nest a slice: (s), not(s), a[s] or !s, k levels deep
      const size_t from = pos(1);
      const size_t to = from + static_cast<size_t>(
                                   rng->Uniform(text.size() - from + 1));
      static constexpr std::pair<const char*, const char*> kWraps[] = {
          {"(", ")"}, {"not(", ")"}, {"a[", "]"}, {"!", ""}};
      const auto [open, close] = kWraps[rng->Uniform(std::size(kWraps))];
      // Mostly shallow; sometimes straddling the depth bound.
      const size_t levels =
          rng->Uniform(8) == 0
              ? kMaxQueryDepth - 2 + static_cast<size_t>(rng->Uniform(5))
              : 1 + static_cast<size_t>(rng->Uniform(4));
      std::string opened, closed;
      for (size_t i = 0; i < levels; ++i) {
        opened += open;
        closed += close;
      }
      text.insert(to, closed);
      text.insert(from, opened);
      break;
    }
    default: {  // lengthen a chain: repeat " and s" or "/s"
      static constexpr const char* kLinks[] = {" and a", " or a", "/a",
                                                "//a", "[a]"};
      const char* link = kLinks[rng->Uniform(std::size(kLinks))];
      const size_t times = rng->Uniform(8) == 0
                               ? kMaxQueryDepth - 4 +
                                     static_cast<size_t>(rng->Uniform(8))
                               : 1 + static_cast<size_t>(rng->Uniform(4));
      std::string chain;
      for (size_t i = 0; i < times; ++i) chain += link;
      text.insert(pos(1), chain);
      break;
    }
  }
  return text;
}

TEST(XPathFuzzTest, RegressionInputs) {
  for (const char* input : kRegressions) {
    SCOPED_TRACE(input);
    EXPECT_TRUE(CheckInput(input));
  }
}

TEST(XPathFuzzTest, SeedsCompile) {
  size_t compiled = 0;
  const std::vector<std::string> seeds = Seeds();
  for (const std::string& seed : seeds) compiled += CheckInput(seed);
  // Every seed compiles but the seven error-path inputs, from "[ ] ( )"
  // through "[not/x]".
  EXPECT_EQ(compiled, seeds.size() - 7);
}

TEST(XPathFuzzTest, MutantsKeepEveryProperty) {
  const std::vector<std::string> seeds = Seeds();
  const size_t trials =
      60 * seeds.size() * static_cast<size_t>(testutil::TrialMultiplier());
  Rng rng(0x5eed);
  size_t compiled = 0;
  for (size_t t = 0; t < trials; ++t) {
    std::string mutant = seeds[t % seeds.size()];
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      mutant = Mutate(std::move(mutant), seeds, &rng);
    }
    compiled += CheckInput(mutant);
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << t << " mutant: " << mutant;
      return;
    }
  }
  // Both sides of every property are exercised.
  EXPECT_GT(compiled, trials / 20);
  EXPECT_LT(compiled, trials);
}

}  // namespace
}  // namespace parbox::xpath

#include "xpath/lexer.h"

namespace parbox::xpath {

namespace {

// ASCII classes, as std::isalpha/isdigit/isspace give in the "C"
// locale, without a call per byte.
bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == '@';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':';
}
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> out;
  out.reserve(input.size() / 4 + 2);
  size_t i = 0;
  auto fail = [&](const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(i));
  };
  while (i < input.size()) {
    char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    size_t start = i;
    switch (c) {
      case '[': out.push_back({TokenKind::kLBracket, {}, start}); ++i; continue;
      case ']': out.push_back({TokenKind::kRBracket, {}, start}); ++i; continue;
      case '(': out.push_back({TokenKind::kLParen, {}, start}); ++i; continue;
      case ')': out.push_back({TokenKind::kRParen, {}, start}); ++i; continue;
      case '*': out.push_back({TokenKind::kStar, {}, start}); ++i; continue;
      case '.': out.push_back({TokenKind::kDot, {}, start}); ++i; continue;
      case '=': out.push_back({TokenKind::kEquals, {}, start}); ++i; continue;
      case '!': out.push_back({TokenKind::kBang, {}, start}); ++i; continue;
      case '/':
        if (i + 1 < input.size() && input[i + 1] == '/') {
          out.push_back({TokenKind::kDoubleSlash, {}, start});
          i += 2;
        } else {
          out.push_back({TokenKind::kSlash, {}, start});
          ++i;
        }
        continue;
      case '"':
      case '\'': {
        const size_t close = input.find(c, i + 1);
        if (close == std::string_view::npos) {
          i = input.size();
          return fail("unterminated string literal");
        }
        out.push_back(
            {TokenKind::kString, input.substr(i + 1, close - i - 1), start});
        i = close + 1;
        continue;
      }
      default:
        break;
    }
    if (IsNameStart(c)) {
      while (i < input.size() && IsNameChar(input[i])) ++i;
      const std::string_view name = input.substr(start, i - start);
      // `text()` and `label()` are built-in functions, not labels.
      if ((name == "text" || name == "label") && i + 1 < input.size() &&
          input[i] == '(' && input[i + 1] == ')') {
        i += 2;
        out.push_back({name == "text" ? TokenKind::kTextFn
                                      : TokenKind::kLabelFn,
                       {}, start});
      } else {
        out.push_back({TokenKind::kName, name, start});
      }
      continue;
    }
    return fail(std::string("unexpected character '") + c + "'");
  }
  out.push_back({TokenKind::kEnd, {}, input.size()});
  return out;
}

}  // namespace parbox::xpath

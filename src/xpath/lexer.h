// Tokenizer for the XBL concrete syntax.

#ifndef PARBOX_XPATH_LEXER_H_
#define PARBOX_XPATH_LEXER_H_

#include <string_view>
#include <vector>

#include "common/status.h"

namespace parbox::xpath {

enum class TokenKind : uint8_t {
  kLBracket,   // [
  kRBracket,   // ]
  kLParen,     // (
  kRParen,     // )
  kSlash,      // /
  kDoubleSlash,// //
  kStar,       // *
  kDot,        // .
  kEquals,     // =
  kBang,       // !
  kName,       // element label or keyword (and/or/not)
  kString,     // "..." or '...'
  kTextFn,     // text()
  kLabelFn,    // label()
  kEnd,
};

/// A token's text is a view into the tokenized input, which must
/// outlive it; the parser copies what the syntax tree keeps.
struct Token {
  TokenKind kind;
  std::string_view text;  // name or unquoted string payload
  size_t offset;          // byte offset in the input, for error messages
};

/// Tokenize the whole input. Fails on unterminated strings or unknown
/// characters (message includes the byte offset).
Result<std::vector<Token>> Tokenize(std::string_view input);

}  // namespace parbox::xpath

#endif  // PARBOX_XPATH_LEXER_H_

#include "xml/parser.h"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace parbox::xml {

namespace {

bool IsNameStart(char c) {
  // '@' admits the parser's own attribute-as-element encoding.
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || c == '@';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options)
      : input_(input), options_(options) {}

  Result<Document> Parse() {
    Document doc;
    SkipProlog();
    if (AtEnd()) return Fail("document has no root element");
    if (Peek() != '<') return Fail("expected root element");
    Node* root = nullptr;
    Status st = ParseElement(&doc, &root);
    if (!st.ok()) return st;
    doc.set_root(root);
    SkipMisc();
    if (!AtEnd()) return Fail("trailing content after root element");
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }
  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }
  bool Consume(std::string_view token) {
    if (input_.substr(pos_, token.size()) != token) return false;
    for (size_t i = 0; i < token.size(); ++i) Advance();
    return true;
  }
  void SkipSpace() {
    while (!AtEnd() && IsSpace(Peek())) Advance();
  }

  Status Fail(const std::string& what) {
    return Status::ParseError(what + " at " + std::to_string(line_) + ":" +
                              std::to_string(col_));
  }

  /// XML declaration, comments, PIs, whitespace before the root.
  void SkipProlog() {
    for (;;) {
      SkipSpace();
      if (input_.substr(pos_, 2) == "<?") {
        SkipUntil("?>");
      } else if (input_.substr(pos_, 4) == "<!--") {
        SkipUntil("-->");
      } else {
        return;
      }
    }
  }

  void SkipMisc() {
    for (;;) {
      SkipSpace();
      if (input_.substr(pos_, 4) == "<!--") {
        SkipUntil("-->");
      } else {
        return;
      }
    }
  }

  void SkipUntil(std::string_view terminator) {
    while (!AtEnd() && input_.substr(pos_, terminator.size()) != terminator) {
      Advance();
    }
    Consume(terminator);
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Fail("expected a name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return std::string(input_.substr(start, pos_ - start));
  }

  /// Decode one entity starting at '&'. Appends to `out`.
  Status ParseEntity(std::string* out) {
    Advance();  // '&'
    size_t start = pos_;
    while (!AtEnd() && Peek() != ';') {
      if (pos_ - start > 8) return Fail("unterminated entity");
      Advance();
    }
    if (AtEnd()) return Fail("unterminated entity");
    std::string_view name = input_.substr(start, pos_ - start);
    Advance();  // ';'
    if (name == "amp") {
      out->push_back('&');
    } else if (name == "lt") {
      out->push_back('<');
    } else if (name == "gt") {
      out->push_back('>');
    } else if (name == "quot") {
      out->push_back('"');
    } else if (name == "apos") {
      out->push_back('\'');
    } else if (!name.empty() && name[0] == '#') {
      long code = 0;
      if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
        code = std::strtol(std::string(name.substr(2)).c_str(), nullptr, 16);
      } else {
        code = std::strtol(std::string(name.substr(1)).c_str(), nullptr, 10);
      }
      if (code <= 0 || code > 0x10FFFF) return Fail("bad character reference");
      // Encode as UTF-8.
      unsigned cp = static_cast<unsigned>(code);
      if (cp < 0x80) {
        out->push_back(static_cast<char>(cp));
      } else if (cp < 0x800) {
        out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else if (cp < 0x10000) {
        out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      } else {
        out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
      }
    } else {
      return Fail("unknown entity '&" + std::string(name) + ";'");
    }
    return Status::OK();
  }

  Result<std::string> ParseAttrValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Fail("expected quoted attribute value");
    }
    char quote = Peek();
    Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '&') {
        PARBOX_RETURN_IF_ERROR(ParseEntity(&value));
      } else {
        value.push_back(Peek());
        Advance();
      }
    }
    if (AtEnd()) return Fail("unterminated attribute value");
    Advance();  // closing quote
    return value;
  }

  /// Parse an element whose '<' is the current byte. Iterative with an
  /// explicit open-element stack: nesting depth is bounded only by
  /// memory, so deep chain documents (version histories thousands of
  /// sites long) parse without exhausting the C++ stack.
  Status ParseElement(Document* doc, Node** out) {
    struct Open {
      Node* element;
      std::string name;  // for close-tag matching and error messages
      std::string text;  // pending character data
    };
    std::vector<Open> stack;

    auto flush_text = [&](Open& open) {
      if (open.text.empty()) return;
      bool all_space = true;
      for (char c : open.text) {
        if (!IsSpace(c)) all_space = false;
      }
      if (!(all_space && options_.skip_whitespace_text)) {
        doc->AppendChild(open.element, doc->NewText(open.text));
      }
      open.text.clear();
    };

    // Loop invariant at the top: the current byte is the '<' of a
    // start tag (the root's on entry, a child's after the content scan
    // below breaks out on one).
    for (;;) {
      Advance();  // '<'
      PARBOX_ASSIGN_OR_RETURN(std::string name, ParseName());

      // Attributes.
      struct Attr {
        std::string name;
        std::string value;
      };
      std::vector<Attr> attrs;
      for (;;) {
        SkipSpace();
        if (AtEnd()) return Fail("unterminated start tag");
        if (Peek() == '>' || Peek() == '/') break;
        PARBOX_ASSIGN_OR_RETURN(std::string aname, ParseName());
        SkipSpace();
        if (AtEnd() || Peek() != '=') return Fail("expected '=' in attribute");
        Advance();
        SkipSpace();
        PARBOX_ASSIGN_OR_RETURN(std::string avalue, ParseAttrValue());
        attrs.push_back({std::move(aname), std::move(avalue)});
      }

      // A completed node (virtual or self-closing); nullptr when the
      // tag opened an element that now tops the stack.
      Node* completed = nullptr;
      if (name == "parbox:virtual") {
        // The writer's encoding of virtual nodes.
        if (attrs.size() != 1 || attrs[0].name != "ref") {
          return Fail("parbox:virtual requires exactly a ref attribute");
        }
        if (!Consume("/>")) return Fail("parbox:virtual must be self-closing");
        PARBOX_ASSIGN_OR_RETURN(FragmentId ref,
                                ParseFragmentRef(attrs[0].value));
        completed = doc->NewVirtual(ref);
      } else {
        Node* element = doc->NewElement(name);
        for (const Attr& a : attrs) {
          Node* attr_el = doc->NewElement("@" + a.name);
          if (!a.value.empty()) {
            doc->AppendChild(attr_el, doc->NewText(a.value));
          }
          doc->AppendChild(element, attr_el);
        }
        if (Consume("/>")) {
          completed = element;
        } else if (!Consume(">")) {
          return Fail("expected '>'");
        } else {
          stack.push_back(Open{element, std::move(name), {}});
        }
      }
      if (completed != nullptr) {
        if (stack.empty()) {
          *out = completed;
          return Status::OK();
        }
        doc->AppendChild(stack.back().element, completed);
      }

      // Content of the innermost open element, until a child start tag
      // (break to the outer loop) or its close tag (pop; the root's
      // close returns).
      while (!stack.empty()) {
        Open& open = stack.back();
        if (AtEnd()) return Fail("unterminated element <" + open.name + ">");
        if (Peek() == '<') {
          if (PeekAt(1) == '/') {
            flush_text(open);
            Advance();
            Advance();
            PARBOX_ASSIGN_OR_RETURN(std::string close, ParseName());
            if (close != open.name) {
              return Fail("mismatched close tag </" + close + "> for <" +
                          open.name + ">");
            }
            SkipSpace();
            if (!Consume(">")) return Fail("expected '>' in close tag");
            Node* done = open.element;
            stack.pop_back();
            if (stack.empty()) {
              *out = done;
              return Status::OK();
            }
            doc->AppendChild(stack.back().element, done);
            continue;
          }
          if (input_.substr(pos_, 4) == "<!--") {
            SkipUntil("-->");
            continue;
          }
          if (input_.substr(pos_, 9) == "<![CDATA[") {
            for (size_t i = 0; i < 9; ++i) Advance();
            size_t start = pos_;
            while (!AtEnd() && input_.substr(pos_, 3) != "]]>") Advance();
            if (AtEnd()) return Fail("unterminated CDATA section");
            open.text.append(input_.substr(start, pos_ - start));
            Consume("]]>");
            continue;
          }
          if (input_.substr(pos_, 2) == "<!") {
            return Fail("DTD markup is not supported");
          }
          if (input_.substr(pos_, 2) == "<?") {
            SkipUntil("?>");
            continue;
          }
          flush_text(open);
          break;  // child start tag: parse it at the outer loop top
        }
        if (Peek() == '&') {
          PARBOX_RETURN_IF_ERROR(ParseEntity(&open.text));
          continue;
        }
        open.text.push_back(Peek());
        Advance();
      }
    }
  }

  /// A parbox:virtual ref attribute: a non-negative decimal FragmentId.
  Result<FragmentId> ParseFragmentRef(const std::string& value) {
    if (value.empty()) return Fail("empty fragment ref");
    long long ref = 0;
    for (char c : value) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return Fail("bad fragment ref '" + value + "'");
      }
      ref = ref * 10 + (c - '0');
      if (ref > std::numeric_limits<FragmentId>::max()) {
        return Fail("fragment ref '" + value + "' out of range");
      }
    }
    return static_cast<FragmentId>(ref);
  }

  std::string_view input_;
  ParseOptions options_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
};

}  // namespace

Result<Document> ParseXml(std::string_view input,
                          const ParseOptions& options) {
  // Node::data_size is 32 bits, and no label or text outgrows its input.
  if (input.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::ParseError("document larger than 4 GiB");
  }
  Parser parser(input, options);
  return parser.Parse();
}

}  // namespace parbox::xml

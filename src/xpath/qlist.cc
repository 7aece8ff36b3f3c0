#include "xpath/qlist.h"

#include <cassert>

namespace parbox::xpath {

const char* NormKindName(NormKind kind) {
  switch (kind) {
    case NormKind::kEps: return "eps";
    case NormKind::kMark: return "mark";
    case NormKind::kLabelIs: return "label";
    case NormKind::kTextIs: return "text";
    case NormKind::kChild: return "child";
    case NormKind::kSeq: return "seq";
    case NormKind::kDesc: return "desc";
    case NormKind::kAnd: return "and";
    case NormKind::kOr: return "or";
    case NormKind::kNot: return "not";
  }
  return "?";
}

SubQueryId NormQuery::Intern(NormKind kind, SubQueryId a, SubQueryId b,
                             std::string_view str) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the payload
  for (char c : str) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  hash ^= (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
          static_cast<uint32_t>(b);
  hash = (hash ^ static_cast<uint8_t>(kind)) * 0x9e3779b97f4a7c15ULL;
  const SubQueryId found = intern_.Find(hash, [&](SubQueryId id) {
    const SubQuery& n = nodes_[id];
    return n.kind == kind && n.a == a && n.b == b && n.str == str;
  });
  if (found >= 0) return found;
  const SubQueryId id = static_cast<SubQueryId>(nodes_.size());
  if (nodes_.empty()) {
    // One allocation each for a typical query: doubling from one entry
    // reaches the same capacity for 17 to 32 entries, in six steps.
    nodes_.reserve(32);
    intern_.Reserve(32);
  }
  nodes_.push_back({kind, a, b, std::string(str)});
  intern_.Insert(hash, id);
  return id;
}

SubQueryId NormQuery::Eps() { return Intern(NormKind::kEps, -1, -1); }
SubQueryId NormQuery::Mark() { return Intern(NormKind::kMark, -1, -1); }
SubQueryId NormQuery::LabelIs(std::string_view label) {
  return Intern(NormKind::kLabelIs, -1, -1, label);
}
SubQueryId NormQuery::TextIs(std::string_view value) {
  return Intern(NormKind::kTextIs, -1, -1, value);
}
SubQueryId NormQuery::Child(SubQueryId a) {
  assert(a >= 0 && static_cast<size_t>(a) < nodes_.size());
  return Intern(NormKind::kChild, a, -1);
}
SubQueryId NormQuery::Seq(SubQueryId a, SubQueryId b) {
  assert(a >= 0 && b >= 0);
  // ǫ[a]/ǫ == ǫ[a].
  if (nodes_[b].kind == NormKind::kEps) return a;
  if (nodes_[a].kind == NormKind::kEps) return b;
  // ǫ[a]/ǫ[b']/rest == ǫ[a ∧ b']/rest  (the paper's last normalize rule).
  if (nodes_[b].kind == NormKind::kSeq) {
    SubQueryId merged = And(a, nodes_[b].a);
    return Seq(merged, nodes_[b].b);
  }
  return Intern(NormKind::kSeq, a, b);
}
SubQueryId NormQuery::Desc(SubQueryId a) {
  assert(a >= 0);
  return Intern(NormKind::kDesc, a, -1);
}
SubQueryId NormQuery::And(SubQueryId a, SubQueryId b) {
  assert(a >= 0 && b >= 0);
  return Intern(NormKind::kAnd, a, b);
}
SubQueryId NormQuery::Or(SubQueryId a, SubQueryId b) {
  assert(a >= 0 && b >= 0);
  return Intern(NormKind::kOr, a, b);
}
SubQueryId NormQuery::Not(SubQueryId a) {
  assert(a >= 0);
  return Intern(NormKind::kNot, a, -1);
}

bool NormQuery::IsWellFormed() const {
  if (root_ < 0 || static_cast<size_t>(root_) >= nodes_.size()) return false;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const SubQuery& n = nodes_[i];
    auto check_child = [&](SubQueryId c) {
      return c >= 0 && static_cast<size_t>(c) < i;
    };
    switch (n.kind) {
      case NormKind::kEps:
      case NormKind::kMark:
      case NormKind::kLabelIs:
      case NormKind::kTextIs:
        if (n.a != -1 || n.b != -1) return false;
        break;
      case NormKind::kChild:
      case NormKind::kDesc:
      case NormKind::kNot:
        if (!check_child(n.a) || n.b != -1) return false;
        break;
      case NormKind::kSeq:
      case NormKind::kAnd:
      case NormKind::kOr:
        if (!check_child(n.a) || !check_child(n.b)) return false;
        break;
    }
  }
  return true;
}

std::string NormQuery::SubQueryToString(SubQueryId id) const {
  const SubQuery& n = nodes_[id];
  auto q = [](SubQueryId c) { return "q" + std::to_string(c); };
  switch (n.kind) {
    case NormKind::kEps: return "eps";
    case NormKind::kMark: return "mark";
    case NormKind::kLabelIs: return "label() = " + n.str;
    case NormKind::kTextIs: return "text() = \"" + n.str + "\"";
    case NormKind::kChild: return "*/" + q(n.a);
    case NormKind::kSeq: return "eps[" + q(n.a) + "]/" + q(n.b);
    case NormKind::kDesc: return "//" + q(n.a);
    case NormKind::kAnd: return q(n.a) + " & " + q(n.b);
    case NormKind::kOr: return q(n.a) + " | " + q(n.b);
    case NormKind::kNot: return "!" + q(n.a);
  }
  return "?";
}

std::string NormQuery::ToString() const {
  std::string out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    out += "q" + std::to_string(i) + " = " +
           SubQueryToString(static_cast<SubQueryId>(i));
    if (static_cast<SubQueryId>(i) == root_) out += "   <- answer";
    out += "\n";
  }
  return out;
}

uint64_t NormQuery::SerializedSizeBytes() const {
  // Compact encoding: per node one kind byte, varint-ish children
  // (estimate 2 bytes each present child), payload length + bytes.
  uint64_t total = 4;  // root id
  for (const SubQuery& n : nodes_) {
    total += 1;
    if (n.a >= 0) total += 2;
    if (n.b >= 0) total += 2;
    if (!n.str.empty()) total += 1 + n.str.size();
  }
  return total;
}

}  // namespace parbox::xpath

#include "boolexpr/serialize.h"

#include "common/flat_table.h"

namespace parbox::bexpr {

namespace {

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

size_t VarintSize(uint64_t v) {
  size_t size = 1;
  while (v >= 0x80) {
    ++size;
    v >>= 7;
  }
  return size;
}

using TopoIndex = FlatMap<ExprId, uint32_t>;

/// Topological order over the union of the root DAGs; `index` maps each
/// node to its position. Shared by the encoder and the size counter so
/// the two can never disagree.
std::vector<ExprId> TopoOrder(const ExprFactory& factory,
                              std::span<const ExprId> roots,
                              TopoIndex* index) {
  std::vector<ExprId> order;
  std::vector<std::pair<ExprId, bool>> stack;
  index->Reserve(roots.size());
  order.reserve(roots.size());
  stack.reserve(2 * roots.size());
  for (ExprId r : roots) stack.emplace_back(r, false);
  while (!stack.empty()) {
    auto [x, expanded] = stack.back();
    stack.pop_back();
    if (index->Find(x) != nullptr) continue;
    if (expanded) {
      index->Insert(x, static_cast<uint32_t>(order.size()));
      order.push_back(x);
      continue;
    }
    stack.emplace_back(x, true);
    for (ExprId c : factory.children(x)) {
      if (index->Find(c) == nullptr) stack.emplace_back(c, false);
    }
  }
  return order;
}

bool GetVarint(std::string_view* in, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (!in->empty()) {
    uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    if (shift >= 63 && byte > 1) return false;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace

std::string SerializeExprs(const ExprFactory& factory,
                           std::span<const ExprId> roots) {
  TopoIndex index;
  const std::vector<ExprId> order = TopoOrder(factory, roots, &index);

  std::string out;
  PutVarint(&out, order.size());
  for (ExprId e : order) {
    ExprOp op = factory.op(e);
    out.push_back(static_cast<char>(op));
    switch (op) {
      case ExprOp::kConst:
        out.push_back(factory.const_value(e) ? 1 : 0);
        break;
      case ExprOp::kVar:
        PutVarint(&out, factory.var(e).Pack());
        break;
      default: {
        auto kids = factory.children(e);
        PutVarint(&out, kids.size());
        for (ExprId c : kids) PutVarint(&out, *index.Find(c));
        break;
      }
    }
  }
  PutVarint(&out, roots.size());
  for (ExprId r : roots) PutVarint(&out, *index.Find(r));
  return out;
}

uint64_t SerializedExprsSize(const ExprFactory& factory,
                             std::span<const ExprId> roots) {
  TopoIndex index;
  const std::vector<ExprId> order = TopoOrder(factory, roots, &index);

  uint64_t size = VarintSize(order.size());
  for (ExprId e : order) {
    size += 1;  // op byte
    switch (factory.op(e)) {
      case ExprOp::kConst:
        size += 1;
        break;
      case ExprOp::kVar:
        size += VarintSize(factory.var(e).Pack());
        break;
      default: {
        auto kids = factory.children(e);
        size += VarintSize(kids.size());
        for (ExprId c : kids) size += VarintSize(*index.Find(c));
        break;
      }
    }
  }
  size += VarintSize(roots.size());
  for (ExprId r : roots) size += VarintSize(*index.Find(r));
  return size;
}

Result<std::vector<ExprId>> DeserializeExprs(ExprFactory* factory,
                                             std::string_view data) {
  auto malformed = [] { return Status::ParseError("malformed expr wire data"); };
  // Counts are checked against the bytes left before anything is
  // reserved: every node takes at least 2 bytes (op + payload), every
  // child or root index at least 1.
  uint64_t node_count = 0;
  if (!GetVarint(&data, &node_count) || node_count > data.size() / 2) {
    return malformed();
  }
  std::vector<ExprId> decoded;
  decoded.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    if (data.empty()) return malformed();
    ExprOp op = static_cast<ExprOp>(data.front());
    data.remove_prefix(1);
    switch (op) {
      case ExprOp::kConst: {
        if (data.empty()) return malformed();
        bool value = data.front() != 0;
        data.remove_prefix(1);
        decoded.push_back(factory->FromBool(value));
        break;
      }
      case ExprOp::kVar: {
        uint64_t packed = 0;
        if (!GetVarint(&data, &packed)) return malformed();
        decoded.push_back(
            factory->Var(VarId::Unpack(static_cast<uint32_t>(packed))));
        break;
      }
      case ExprOp::kNot: {
        uint64_t count = 0, child = 0;
        if (!GetVarint(&data, &count) || count != 1) return malformed();
        if (!GetVarint(&data, &child) || child >= decoded.size()) {
          return malformed();
        }
        decoded.push_back(factory->Not(decoded[child]));
        break;
      }
      case ExprOp::kAnd:
      case ExprOp::kOr: {
        uint64_t count = 0;
        if (!GetVarint(&data, &count) || count < 2 || count > data.size()) {
          return malformed();
        }
        std::vector<ExprId> kids;
        kids.reserve(count);
        for (uint64_t k = 0; k < count; ++k) {
          uint64_t child = 0;
          if (!GetVarint(&data, &child) || child >= decoded.size()) {
            return malformed();
          }
          kids.push_back(decoded[child]);
        }
        decoded.push_back(op == ExprOp::kAnd ? factory->AndN(kids)
                                             : factory->OrN(kids));
        break;
      }
      default:
        return malformed();
    }
  }
  uint64_t root_count = 0;
  if (!GetVarint(&data, &root_count) || root_count > data.size()) {
    return malformed();
  }
  std::vector<ExprId> roots;
  roots.reserve(root_count);
  for (uint64_t i = 0; i < root_count; ++i) {
    uint64_t idx = 0;
    if (!GetVarint(&data, &idx) || idx >= decoded.size()) return malformed();
    roots.push_back(decoded[idx]);
  }
  if (!data.empty()) return malformed();
  return roots;
}

}  // namespace parbox::bexpr

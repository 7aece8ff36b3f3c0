#include "xml/dom.h"

#include <cassert>
#include <limits>
#include <vector>

namespace parbox::xml {

bool DirectTextEquals(const Node& n, std::string_view expected) {
  if (n.is_text()) return n.text() == expected;
  size_t pos = 0;
  for (const Node* c = n.first_child; c != nullptr; c = c->next_sibling) {
    if (!c->is_text()) continue;
    std::string_view t = c->text();
    if (pos + t.size() > expected.size()) return false;
    if (expected.substr(pos, t.size()) != t) return false;
    pos += t.size();
  }
  return pos == expected.size();
}

std::string DirectText(const Node& n) {
  if (n.is_text()) return std::string(n.text());
  std::string out;
  for (const Node* c = n.first_child; c != nullptr; c = c->next_sibling) {
    if (c->is_text()) out += c->text();
  }
  return out;
}

Node* Document::AllocNode() { return arena_.New<Node>(); }

void Document::SetData(Node* n, std::string_view data) {
  assert(data.size() <= std::numeric_limits<uint32_t>::max());
  n->data = arena_.CopyString(data.data(), data.size());
  n->data_size = static_cast<uint32_t>(data.size());
}

Node* Document::NewElement(std::string_view label) {
  Node* n = AllocNode();
  n->kind = NodeKind::kElement;
  SetData(n, label);
  return n;
}

Node* Document::NewText(std::string_view content) {
  Node* n = AllocNode();
  n->kind = NodeKind::kText;
  SetData(n, content);
  return n;
}

Node* Document::NewVirtual(FragmentId fragment) {
  Node* n = AllocNode();
  n->kind = NodeKind::kVirtual;
  n->fragment_ref = fragment;
  return n;
}

void Document::AppendChild(Node* parent, Node* child) {
  InsertBefore(parent, child, nullptr);
}

void Document::InsertBefore(Node* parent, Node* child, Node* before) {
  assert(parent != nullptr && child != nullptr);
  assert(child->parent == nullptr && "child must be detached");
  assert(before == nullptr || before->parent == parent);
  child->parent = parent;
  if (before == nullptr) {
    child->prev_sibling = parent->last_child;
    child->next_sibling = nullptr;
    if (parent->last_child != nullptr) {
      parent->last_child->next_sibling = child;
    } else {
      parent->first_child = child;
    }
    parent->last_child = child;
  } else {
    child->next_sibling = before;
    child->prev_sibling = before->prev_sibling;
    if (before->prev_sibling != nullptr) {
      before->prev_sibling->next_sibling = child;
    } else {
      parent->first_child = child;
    }
    before->prev_sibling = child;
  }
}

void Document::Detach(Node* n) {
  assert(n != nullptr);
  Node* parent = n->parent;
  if (parent == nullptr) {
    if (root_ == n) root_ = nullptr;
    return;
  }
  if (n->prev_sibling != nullptr) {
    n->prev_sibling->next_sibling = n->next_sibling;
  } else {
    parent->first_child = n->next_sibling;
  }
  if (n->next_sibling != nullptr) {
    n->next_sibling->prev_sibling = n->prev_sibling;
  } else {
    parent->last_child = n->prev_sibling;
  }
  n->parent = nullptr;
  n->prev_sibling = nullptr;
  n->next_sibling = nullptr;
}

void Document::SetLabel(Node* n, std::string_view label) {
  assert(n != nullptr && n->is_element());
  SetData(n, label);
}

Node* Document::DeepCopy(const Node* src) {
  assert(src != nullptr);
  // Iterative copy: stack of (source node, copied parent).
  Node* copy_root = nullptr;
  std::vector<std::pair<const Node*, Node*>> stack;
  stack.emplace_back(src, nullptr);
  while (!stack.empty()) {
    auto [s, copied_parent] = stack.back();
    stack.pop_back();
    Node* c = AllocNode();
    c->kind = s->kind;
    c->fragment_ref = s->fragment_ref;
    if (s->kind != NodeKind::kVirtual) {
      SetData(c, std::string_view(s->data, s->data_size));
    }
    if (copied_parent == nullptr) {
      copy_root = c;
    } else {
      // Children were pushed in reverse order, so appending keeps order.
      AppendChild(copied_parent, c);
    }
    std::vector<const Node*> kids;
    for (const Node* k = s->first_child; k != nullptr; k = k->next_sibling) {
      kids.push_back(k);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, c);
    }
  }
  return copy_root;
}

namespace {

template <typename Fn>
void ForEachNode(const Node* root, Fn&& fn) {
  if (root == nullptr) return;
  std::vector<const Node*> stack{root};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    fn(n);
    for (const Node* c = n->last_child; c != nullptr; c = c->prev_sibling) {
      stack.push_back(c);
    }
  }
}

}  // namespace

size_t CountNodes(const Node* n) {
  size_t count = 0;
  ForEachNode(n, [&](const Node*) { ++count; });
  return count;
}

size_t CountElements(const Node* n) {
  size_t count = 0;
  ForEachNode(n, [&](const Node* x) {
    if (x->is_element()) ++count;
  });
  return count;
}

size_t CountVirtuals(const Node* n) {
  size_t count = 0;
  ForEachNode(n, [&](const Node* x) {
    if (x->is_virtual()) ++count;
  });
  return count;
}

size_t TreeDepth(const Node* n) {
  if (n == nullptr) return 0;
  size_t best = 0;
  std::vector<std::pair<const Node*, size_t>> stack{{n, 1}};
  while (!stack.empty()) {
    auto [x, d] = stack.back();
    stack.pop_back();
    if (d > best) best = d;
    for (const Node* c = x->first_child; c != nullptr; c = c->next_sibling) {
      stack.emplace_back(c, d + 1);
    }
  }
  return best;
}

bool TreeEquals(const Node* a, const Node* b) {
  if (a == nullptr || b == nullptr) return a == b;
  std::vector<std::pair<const Node*, const Node*>> stack{{a, b}};
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (x->kind != y->kind) return false;
    if (x->fragment_ref != y->fragment_ref) return false;
    if (std::string_view(x->data, x->data_size) !=
        std::string_view(y->data, y->data_size)) {
      return false;
    }
    const Node* cx = x->first_child;
    const Node* cy = y->first_child;
    while (cx != nullptr && cy != nullptr) {
      stack.emplace_back(cx, cy);
      cx = cx->next_sibling;
      cy = cy->next_sibling;
    }
    if (cx != nullptr || cy != nullptr) return false;
  }
  return true;
}

Status ValidateLinks(const Node* root) {
  if (root == nullptr) return Status::OK();
  Status bad = Status::OK();
  ForEachNode(root, [&](const Node* n) {
    if (!bad.ok()) return;
    const Node* prev = nullptr;
    for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      if (c->parent != n) {
        bad = Status::Internal("child with wrong parent pointer");
        return;
      }
      if (c->prev_sibling != prev) {
        bad = Status::Internal("broken prev_sibling link");
        return;
      }
      prev = c;
    }
    if (n->last_child != prev) {
      bad = Status::Internal("last_child does not match sibling chain");
      return;
    }
    if ((n->first_child == nullptr) != (n->last_child == nullptr)) {
      bad = Status::Internal("first_child/last_child nullness mismatch");
      return;
    }
    if (n->is_virtual() && n->first_child != nullptr) {
      bad = Status::Internal("virtual node has children");
      return;
    }
  });
  return bad;
}

Node* FindFirstElement(Node* root, std::string_view label) {
  Node* found = nullptr;
  ForEachNode(root, [&](const Node* n) {
    if (found == nullptr && n->is_element() && n->label() == label) {
      found = const_cast<Node*>(n);
    }
  });
  return found;
}

}  // namespace parbox::xml

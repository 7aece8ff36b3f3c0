// An arena-backed XML DOM: the ordered labelled tree all parbox
// algorithms operate on.
//
// Three node kinds exist:
//   * kElement  — a labelled interior node (children: any kind).
//   * kText     — a character-data leaf.
//   * kVirtual  — a placeholder leaf standing for a sub-fragment of a
//                 fragmented document (Sec. 2.1 of the paper). While
//                 traversing a fragment, reaching a virtual node means
//                 "the subtree continues in fragment `fragment_ref`,
//                 stored possibly at another site".
//
// Nodes are allocated from the owning Document's arena and live exactly
// as long as it. Sibling lists are doubly linked so the paper's
// `delNode` update is O(1).

#ifndef PARBOX_XML_DOM_H_
#define PARBOX_XML_DOM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/arena.h"
#include "common/status.h"

namespace parbox::xml {

enum class NodeKind : uint8_t { kElement, kText, kVirtual };

/// Identifies a fragment of a fragmented tree. Dense, 0-based.
using FragmentId = int32_t;
inline constexpr FragmentId kNoFragment = -1;

/// A DOM node. Create through Document; never directly.
struct Node {
  NodeKind kind = NodeKind::kElement;
  /// Length of `data`, under 4 GiB (ParseXml rejects larger
  /// documents). It sits in the padding after `kind`, so label() and
  /// text() never call strlen.
  uint32_t data_size = 0;
  /// Element label, or text content for kText. Arena-owned, NUL-terminated.
  const char* data = "";
  /// For kVirtual: the referenced sub-fragment. Else kNoFragment.
  FragmentId fragment_ref = kNoFragment;

  Node* parent = nullptr;
  Node* first_child = nullptr;
  Node* last_child = nullptr;
  Node* prev_sibling = nullptr;
  Node* next_sibling = nullptr;

  bool is_element() const { return kind == NodeKind::kElement; }
  bool is_text() const { return kind == NodeKind::kText; }
  bool is_virtual() const { return kind == NodeKind::kVirtual; }

  /// Element label ("" for non-elements).
  std::string_view label() const {
    return is_element() ? std::string_view(data, data_size)
                        : std::string_view();
  }
  /// Text content ("" for non-text nodes).
  std::string_view text() const {
    return is_text() ? std::string_view(data, data_size)
                     : std::string_view();
  }
};

/// True iff the concatenation of `n`'s *direct* text children equals
/// `expected`. This is the paper's `text() = "str"` test at an element;
/// it streams the comparison and never allocates.
bool DirectTextEquals(const Node& n, std::string_view expected);

/// Concatenated direct text children (allocates; for display/tests).
std::string DirectText(const Node& n);

/// An XML document: an arena plus a root node.
class Document {
 public:
  Document() = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  Node* root() const { return root_; }
  void set_root(Node* n) { root_ = n; }

  /// Create a detached element node with the given label.
  Node* NewElement(std::string_view label);
  /// Create a detached text node.
  Node* NewText(std::string_view content);
  /// Create a detached virtual node referencing `fragment`.
  Node* NewVirtual(FragmentId fragment);

  /// Append `child` as the last child of `parent`. `child` must be
  /// detached and owned by this document.
  void AppendChild(Node* parent, Node* child);

  /// Insert `child` immediately before `before` (a child of `parent`).
  /// If `before` is null, behaves like AppendChild.
  void InsertBefore(Node* parent, Node* child, Node* before);

  /// Unlink `n` (and its whole subtree) from its parent. The nodes stay
  /// arena-owned (memory is reclaimed when the document dies).
  void Detach(Node* n);

  /// Relabel element `n` in place (the paper's renameLabel update).
  /// The new label is arena-copied; the old bytes stay arena-owned
  /// until the document dies, like any other dead node data.
  void SetLabel(Node* n, std::string_view label);

  /// Deep-copy `src` (possibly from another document) into this
  /// document; returns the detached copy root.
  Node* DeepCopy(const Node* src);

  /// Memory the node storage occupies.
  size_t arena_bytes() const { return arena_.bytes_allocated(); }

 private:
  Node* AllocNode();
  /// Arena-copy `data` into `n` (label or text), with its length.
  void SetData(Node* n, std::string_view data);

  Arena arena_;
  Node* root_ = nullptr;
};

/// Number of nodes of any kind in the subtree rooted at `n` (0 if null).
size_t CountNodes(const Node* n);
/// Number of element nodes in the subtree (the unit of computation cost).
size_t CountElements(const Node* n);
/// Number of virtual nodes in the subtree.
size_t CountVirtuals(const Node* n);
/// Maximum depth (root = 1; 0 if null).
size_t TreeDepth(const Node* n);

/// Structural equality of two subtrees (kind, data, fragment_ref,
/// children, in order).
bool TreeEquals(const Node* a, const Node* b);

/// Verify parent/sibling link invariants over the whole subtree.
/// Returns OK or an Internal status naming the first violation.
Status ValidateLinks(const Node* root);

/// Find the first element in document order with the given label
/// (including `root` itself), or nullptr.
Node* FindFirstElement(Node* root, std::string_view label);

}  // namespace parbox::xml

#endif  // PARBOX_XML_DOM_H_

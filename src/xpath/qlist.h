// NormQuery: an XBL query in the β-normal form of Sec. 2.2, stored as
// its QList — the topologically sorted list of all sub-queries.
//
// Every sub-query is one of nine shapes, matching cases c0-c8 of
// Procedure bottomUp (Fig. 3):
//
//   c0 kEps      ǫ                  true at every node
//   c1 kLabelIs  label() = A
//   c2 kTextIs   text() = "str"     direct text content equals str
//   c3 kChild    * / q_a            q_a holds at some element child
//   c4 kSeq      ǫ[q_a] / q_b       q_a and q_b both hold here
//   c5 kDesc     // q_a             q_a holds here or at a descendant
//   c6 kOr       q_a ∨ q_b
//   c7 kAnd      q_a ∧ q_b
//   c8 kNot      ¬ q_a
//      kMark     selection endpoint (data-selection extension): as a
//                Boolean it is ǫ (true everywhere); the downward pass
//                of path selection treats reaching it as "this node is
//                selected".
//
// Nodes are hash-consed at construction, so identical sub-queries share
// one QList entry and ids are assigned in creation order — which *is* a
// topological order (a sub-query is always created before anything that
// references it). The query answer is the entry at root() — the last
// interesting position of the list, exactly as in the paper. The
// consing table files entry ids only (common/flat_table.h) and compares
// candidates against the entries themselves, so it holds no key copies.

#ifndef PARBOX_XPATH_QLIST_H_
#define PARBOX_XPATH_QLIST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_table.h"

namespace parbox::xpath {

enum class NormKind : uint8_t {
  kEps,
  kMark,
  kLabelIs,
  kTextIs,
  kChild,
  kSeq,
  kDesc,
  kAnd,
  kOr,
  kNot,
};

const char* NormKindName(NormKind kind);

/// Index of a sub-query within a NormQuery's QList.
using SubQueryId = int32_t;

/// A normalized query: the QList plus the root (answer) entry.
class NormQuery {
 public:
  struct SubQuery {
    NormKind kind;
    SubQueryId a = -1;  ///< first child (kChild/kSeq/kDesc/kAnd/kOr/kNot)
    SubQueryId b = -1;  ///< second child (kSeq/kAnd/kOr)
    std::string str;    ///< label (kLabelIs) or text value (kTextIs)

    /// Entry-wise structural equality. Because child references are
    /// QList indices, two queries whose first k entries compare equal
    /// share an identical sub-query *prefix* — the basis of fused
    /// evaluation's cross-query sharing and of cache subsumption.
    friend bool operator==(const SubQuery& x, const SubQuery& y) {
      return x.kind == y.kind && x.a == y.a && x.b == y.b && x.str == y.str;
    }
  };

  NormQuery() = default;
  NormQuery(NormQuery&&) = default;
  NormQuery& operator=(NormQuery&&) = default;
  NormQuery(const NormQuery&) = delete;
  NormQuery& operator=(const NormQuery&) = delete;

  // ---- Consing builder (used by Normalize and the query generators) ----
  SubQueryId Eps();
  /// Selection endpoint (see kMark).
  SubQueryId Mark();
  SubQueryId LabelIs(std::string_view label);
  SubQueryId TextIs(std::string_view value);
  SubQueryId Child(SubQueryId a);
  /// ǫ[a]/b. Applies the paper's ǫ-merge rules: Seq(a, Eps) = a and
  /// Seq(a, Seq(b, rest)) = Seq(a ∧ b, rest).
  SubQueryId Seq(SubQueryId a, SubQueryId b);
  SubQueryId Desc(SubQueryId a);
  SubQueryId And(SubQueryId a, SubQueryId b);
  SubQueryId Or(SubQueryId a, SubQueryId b);
  SubQueryId Not(SubQueryId a);
  void SetRoot(SubQueryId root) { root_ = root; }

  // ---- Access ----
  /// |QList(q)|: number of sub-queries (vector width in all algorithms).
  size_t size() const { return nodes_.size(); }
  const SubQuery& at(SubQueryId id) const { return nodes_[id]; }
  SubQueryId root() const { return root_; }

  /// Verify ids form a topological order and children are in range.
  bool IsWellFormed() const;

  /// Render one sub-query, e.g. "(*/q3)".
  std::string SubQueryToString(SubQueryId id) const;
  /// Multi-line listing of the whole QList (Example 2.1 style).
  std::string ToString() const;

  /// Bytes to ship the query to a site (the |q| in traffic bounds):
  /// measured as the size of a compact binary encoding.
  uint64_t SerializedSizeBytes() const;

 private:
  SubQueryId Intern(NormKind kind, SubQueryId a, SubQueryId b,
                    std::string_view str = {});

  std::vector<SubQuery> nodes_;
  FlatIdTable intern_;  ///< entry ids, filed by a hash of the entry
  SubQueryId root_ = -1;
};

}  // namespace parbox::xpath

#endif  // PARBOX_XPATH_QLIST_H_

// Open-addressing hash tables for the per-query path.
//
// Compiling a query, solving its equation system and sizing its
// triplets each fill a small table per call. Node-based
// std::unordered_map pays a heap node per entry (and the QList intern
// table paid a key string per entry too); these tables keep their
// entries in one power-of-two array probed linearly, so an insert into
// a reserved table allocates nothing and a lookup is a multiply, a
// shift and a short scan of adjacent slots.
//
//   FlatMap<K, V>  integer key -> small value: the solver's Assignment,
//                  formula-walk memos, the serializer's DAG index.
//   FlatIdTable    int32 ids whose keys live in the caller's own array,
//                  probed with the caller's hash and equality: the
//                  QList intern table, which stores no key copies.
//
// Neither erases: every user fills a table and drops it whole. Both
// keep the load factor at or below 1/2.

#ifndef PARBOX_COMMON_FLAT_TABLE_H_
#define PARBOX_COMMON_FLAT_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace parbox {

namespace flat_detail {

/// Fibonacci hashing: the top `64 - shift` bits of key * 2^64/phi.
inline size_t Home(uint64_t key, int shift) {
  return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift);
}

/// The smallest power-of-two slot count (>= 8) that holds `n` entries
/// at load <= 1/2, as (slot count, shift).
inline std::pair<size_t, int> SlotsFor(size_t n) {
  size_t slots = 8;
  int shift = 61;
  while (slots < 2 * n) {
    slots *= 2;
    --shift;
  }
  return {slots, shift};
}

}  // namespace flat_detail

/// Integer key -> value map. The key type's maximum value is reserved
/// as the empty-slot marker and must not be inserted.
template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K>, "FlatMap keys are integers");

 public:
  static constexpr K kEmptyKey = std::numeric_limits<K>::max();

  size_t size() const { return size_; }

  /// Room for `n` entries without rehashing.
  void Reserve(size_t n) {
    if (2 * n > slots_.size()) Rehash(n);
  }

  /// Empties the table for reuse. Capacity stays unless it outgrew
  /// kKeptSlots, so one large fill does not make every later Clear pay
  /// for it.
  void Clear() {
    if (slots_.size() > kKeptSlots) {
      slots_ = {};
    } else if (size_ > 0) {
      for (Slot& s : slots_) s.key = kEmptyKey;
    }
    size_ = 0;
  }

  V* Find(K key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }
  const V* Find(K key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = flat_detail::Home(static_cast<uint64_t>(key), shift_);;
         i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }

  /// Inserts (key, value) unless `key` is present; returns the stored
  /// value and whether it was inserted (std::map::try_emplace).
  std::pair<V*, bool> Insert(K key, V value) {
    assert(key != kEmptyKey);
    if (2 * (size_ + 1) > slots_.size()) Rehash(size_ + 1);
    const size_t mask = slots_.size() - 1;
    for (size_t i = flat_detail::Home(static_cast<uint64_t>(key), shift_);;
         i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.key == key) return {&s.value, false};
      if (s.key == kEmptyKey) {
        s = {key, std::move(value)};
        ++size_;
        return {&s.value, true};
      }
    }
  }

  /// Inserts or overwrites.
  void Set(K key, V value) {
    auto [stored, inserted] = Insert(key, value);
    if (!inserted) *stored = std::move(value);
  }

 private:
  static constexpr size_t kKeptSlots = 1024;

  struct Slot {
    K key = kEmptyKey;
    V value{};
  };

  void Rehash(size_t n) {
    auto [count, shift] = flat_detail::SlotsFor(std::max(n, size_));
    std::vector<Slot> old(count);
    old.swap(slots_);
    shift_ = shift;
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != kEmptyKey) Insert(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

/// A set of non-negative int32 ids keyed by data the caller owns: each
/// id is filed under a 64-bit hash of its key, and Find confirms a
/// candidate with the caller's equality on the id.
class FlatIdTable {
 public:
  size_t size() const { return size_; }

  /// The id filed under `hash` for which `equal(id)` holds, or -1.
  template <typename Equal>
  int32_t Find(uint64_t hash, Equal&& equal) const {
    if (slots_.empty()) return -1;
    const uint32_t tag = Tag(hash);
    const size_t mask = slots_.size() - 1;
    for (size_t i = flat_detail::Home(tag, shift_);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id < 0) return -1;
      if (s.tag == tag && equal(s.id)) return s.id;
    }
  }

  /// Files `id` under `hash`. Precondition: no equal key is filed.
  void Insert(uint64_t hash, int32_t id) {
    assert(id >= 0);
    if (2 * (size_ + 1) > slots_.size()) Rehash(size_ + 1);
    Place(Tag(hash), id);
  }

  /// Room for `n` ids without rehashing.
  void Reserve(size_t n) {
    if (2 * n > slots_.size()) Rehash(n);
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    int32_t id = -1;  ///< -1: empty
  };

  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash ^ (hash >> 32));
  }

  void Place(uint32_t tag, int32_t id) {
    const size_t mask = slots_.size() - 1;
    size_t i = flat_detail::Home(tag, shift_);
    while (slots_[i].id >= 0) i = (i + 1) & mask;
    slots_[i] = {tag, id};
    ++size_;
  }

  void Rehash(size_t n) {
    auto [count, shift] = flat_detail::SlotsFor(std::max(n, size_));
    std::vector<Slot> old(count);
    old.swap(slots_);
    shift_ = shift;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.id >= 0) Place(s.tag, s.id);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace parbox

#endif  // PARBOX_COMMON_FLAT_TABLE_H_

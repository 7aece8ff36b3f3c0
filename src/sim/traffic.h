// Network traffic and site-activity accounting for simulated runs.
//
// Record() sits on the per-message hot path of the simulator, so tags
// are interned in a small-vector registry instead of a string-keyed
// map: Record(TagId) is two array increments, and the string_view
// convenience path costs one allocation-free linear scan over the
// handful of distinct tags a run carries (what exec::SimBackend::Send
// uses). The string-keyed views (bytes_by_tag, bytes_with_tag) are
// materialized on demand, keeping the report format byte-identical to
// the pre-interning output.

#ifndef PARBOX_SIM_TRAFFIC_H_
#define PARBOX_SIM_TRAFFIC_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace parbox::sim {

/// Everything that crossed the simulated network in one run.
class TrafficStats {
 public:
  /// Index into this object's tag registry.
  using TagId = int32_t;

  /// Intern `tag`, returning its stable id. O(#distinct tags) scan —
  /// cheaper than a map lookup for the handful of tags a run uses, and
  /// allocation-free for already-known tags.
  TagId InternTag(std::string_view tag);

  /// Hot path: two array increments plus the receive accounting.
  void Record(int32_t from, int32_t to, uint64_t bytes, TagId tag);

  /// Convenience for callers holding a tag string (interns first).
  void Record(int32_t from, int32_t to, uint64_t bytes,
              std::string_view tag) {
    Record(from, to, bytes, InternTag(tag));
  }

  /// Forget everything, including interned tags — the next run's
  /// accounting is bit-identical to a freshly constructed object.
  void Reset();

  /// Bulk-add one tag's counters without per-message Record calls —
  /// how a per-namespace scoped view of a shared substrate's traffic
  /// is rebuilt (exec::BackendHost). Totals are updated too.
  void AddTagCounts(std::string_view tag, uint64_t bytes,
                    uint64_t messages);
  /// Bulk-add received bytes for one site (scoped-view companion to
  /// AddTagCounts; does not touch totals — AddTagCounts already did).
  void AddBytesInto(int32_t site, uint64_t bytes);

  /// Fold `other`'s counters into this object, matching tags by name.
  ///
  /// Concurrency: a TrafficStats is single-writer — Record is two
  /// plain array increments and must never race. Parallel backends
  /// (exec::ThreadPoolBackend) therefore keep one instance per
  /// execution context, each written only by its own thread, and Merge
  /// them into a combined view once the run is quiescent.
  void Merge(const TrafficStats& other);

  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_messages() const { return total_messages_; }
  uint64_t bytes_with_tag(std::string_view tag) const;
  /// Message count per kind — how many "update" deltas, "triplet"
  /// replies, ... crossed the network (incremental-update accounting).
  uint64_t messages_with_tag(std::string_view tag) const;
  /// Tag -> bytes, sorted by tag name (built on demand; the format the
  /// reports have always printed).
  std::map<std::string, uint64_t> bytes_by_tag() const;
  /// Tag -> messages, sorted by tag name (built on demand).
  std::map<std::string, uint64_t> messages_by_tag() const;
  /// Direct registry reads, intern order — the per-namespace scoped
  /// views (exec::BackendHost) iterate these on every rewind/report
  /// instead of materializing the sorted maps above.
  size_t tag_count() const { return tag_names_.size(); }
  std::string_view tag_name(size_t i) const { return tag_names_[i]; }
  uint64_t tag_bytes(size_t i) const { return bytes_by_tag_id_[i]; }
  uint64_t tag_messages(size_t i) const { return msgs_by_tag_id_[i]; }
  /// Bytes received by a site (grown on demand).
  uint64_t bytes_into(int32_t site) const;

  std::string ToString() const;

 private:
  uint64_t total_bytes_ = 0;
  uint64_t total_messages_ = 0;
  std::vector<std::string> tag_names_;     // registry, index = TagId
  std::vector<uint64_t> bytes_by_tag_id_;  // parallel to tag_names_
  std::vector<uint64_t> msgs_by_tag_id_;   // parallel to tag_names_
  std::vector<uint64_t> bytes_into_;
};

}  // namespace parbox::sim

#endif  // PARBOX_SIM_TRAFFIC_H_

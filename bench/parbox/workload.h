// Workloads of the parbox serving benchmark: what each one serves, the
// corpus it serves it from, and the seeded stream of operations (query
// texts and typed deltas) a client sends.
//
// Everything here is a pure function of the workload and --seed, so the
// live run and its deterministic sim replay see the same arrivals.

#ifndef PARBOX_BENCH_PARBOX_WORKLOAD_H_
#define PARBOX_BENCH_PARBOX_WORKLOAD_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "fragment/delta.h"
#include "fragment/fragment.h"
#include "fragment/source_tree.h"
#include "xml/dom.h"

namespace parbox_bench {

using namespace parbox;

/// One serving workload. Rates are open-loop arrivals per second.
struct WorkloadSpec {
  const char* name;
  const char* backend;      ///< exec backend spec ("threads:3", "proc:3")
  uint64_t corpus_bytes;    ///< XMark star, 8 fragments, one site each
  bool portfolio;           ///< zipf over a fixed portfolio, else distinct
  double read_rate;
  double delta_rate;        ///< typed deltas per second (0: read-only)
  /// Closed-loop reads per second expected on the 4-CPU host; sizes
  /// the capacity legs (the measured capacity is reported, not this).
  double capacity_hint;
  double slo_p99_ms;        ///< p99 limit the rate meets (information)
};

/// nullptr when `name` names no workload.
const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

inline constexpr int kFragments = 8;
/// Execution contexts every backend spec runs: three workers (or
/// daemons) plus the coordinator, one per CPU of a 4-CPU host.
inline constexpr int kContexts = 4;

/// The corpus as XML text: an XMark star of kFragments sites, the root
/// site holding the others under <history>, each about
/// total_bytes / kFragments.
std::string MakeCorpusText(uint64_t total_bytes, uint64_t seed);

/// A fragmented, placed corpus: one fragment per <site>, one site per
/// fragment.
struct Deployment {
  frag::FragmentSet set;
  frag::SourceTree st;
};
Result<Deployment> Fragment(xml::Document doc);

/// The query texts a client sends. Portfolio workloads draw from 64
/// family queries (8 chains of 4..11 steps x 8 variants; variant 0 is
/// the bare chain, a QList prefix of its siblings) under zipf s=1.0;
/// the others send a fresh, never-repeated text every time: a region's
/// items and a price test.
class QuerySource {
 public:
  QuerySource(const WorkloadSpec& spec, uint64_t seed);
  std::string Next();
  const std::vector<std::string>& portfolio() const { return portfolio_; }

 private:
  std::string NextDistinct();

  Rng rng_;
  std::vector<std::string> portfolio_;  ///< in popularity order
  std::vector<double> zipf_cdf_;
  std::unordered_set<std::string> sent_;
};

/// One top-level conjunct of a generated text, possibly negated.
struct Conjunct {
  std::string text;  ///< a query on its own: "[...]"
  bool negated = false;
};

/// The top-level conjuncts of a text QuerySource generated: "[A]" is
/// itself, "[A and B]" is [A] and [B], "[A and not(B)]" is [A] and
/// not [B]. A text's answer is the conjunction of its conjuncts'
/// answers, which lets the answer oracle evaluate each conjunct once.
std::vector<Conjunct> Conjuncts(std::string_view text);

/// A delta in document-independent form; DeltaTargets resolves it
/// against one deployment's nodes.
struct DeltaSpec {
  enum class Op { kRetextMarker, kToggleMarker, kInsertParlist };
  Op op = Op::kRetextMarker;
  int fragment = 0;
  uint64_t pick = 0;  ///< which description (insert)
  std::string text;
};

/// Seeded delta stream: half of the deltas retext or rename a site's
/// <marker> (flipping the family queries that test it), half insert a
/// <parlist> under an item description (refreshing cached triplets
/// without moving answers).
class DeltaSource {
 public:
  explicit DeltaSource(uint64_t seed) : rng_(seed) {}
  DeltaSpec Next();

 private:
  Rng rng_;
};

/// Per-fragment delta targets of one deployment, plus the marker state
/// the rename toggle needs. Resolve in arrival order.
class DeltaTargets {
 public:
  explicit DeltaTargets(const frag::FragmentSet& set);
  frag::Delta Resolve(const DeltaSpec& spec);

 private:
  struct PerFragment {
    xml::Node* marker = nullptr;
    bool marker_on = true;
    std::vector<xml::Node*> descriptions;
  };
  std::vector<PerFragment> fragments_;
};

/// One client operation due at `at` seconds after the workload starts.
struct Arrival {
  double at = 0.0;
  bool is_delta = false;
  std::string text;  ///< read
  DeltaSpec delta;   ///< delta
};

/// The merged open-loop arrival process, timed from 0: Poisson reads
/// (independent users) and a periodic delta feed with a random phase,
/// in due order. `read_rate` 0 yields deltas only.
class ArrivalSchedule {
 public:
  ArrivalSchedule(const WorkloadSpec& spec, uint64_t seed, double read_rate,
                  double delta_rate);
  /// The next arrival strictly due before `end`; false when none.
  bool Next(double end, Arrival* out);
  /// Due time of the last arrival Next returned (0 before the first).
  double clock() const { return clock_; }
  QuerySource& queries() { return queries_; }

 private:
  double Gap(double rate);

  Rng rng_;
  QuerySource queries_;
  DeltaSource deltas_;
  double read_rate_;
  double delta_rate_;
  double next_read_;
  double next_delta_;
  double clock_ = 0.0;
};

inline constexpr double kNever = std::numeric_limits<double>::infinity();

}  // namespace parbox_bench

#endif  // PARBOX_BENCH_PARBOX_WORKLOAD_H_

// Workload generation and arrival-process drivers for a QueryService.
//
// A Workload is a portfolio of distinct queries (over the XMark-like
// vocabulary, sized by |QList|) plus a zipf-skewed popularity: heavy
// traffic from many users is not many *different* questions but a few
// popular ones asked again and again — exactly what the service's
// fingerprint cache and batch dedup exploit.
//
// Two classic arrival processes drive a service (common/rng keeps both
// reproducible from a seed):
//
//   * open loop   — Poisson arrivals at a fixed rate (or everything
//                   at t=0 for a burst), regardless of completions;
//   * closed loop — a fixed number of concurrent clients, each
//                   submitting its next query (after optional think
//                   time) only when the previous one completes.

#ifndef PARBOX_SERVICE_WORKLOAD_H_
#define PARBOX_SERVICE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "service/catalog_service.h"
#include "service/query_service.h"
#include "xpath/qlist.h"

namespace parbox::service {

struct WorkloadSpec {
  /// Portfolio entries; entry i is the deterministic XMark query with
  /// |QList| = min_qlist_size + i.
  int distinct_queries = 16;
  int min_qlist_size = 2;
  /// Popularity skew: entry i drawn with weight 1/(i+1)^zipf_s.
  /// 0 = uniform.
  double zipf_s = 1.0;
  /// > 0 switches the portfolio to query *families*
  /// (xmark::MakeFamilyQuery): consecutive runs of `family_variants`
  /// entries share one descendant-chain template — the first member
  /// is the unqualified base, the rest append divergent label
  /// qualifiers. Entries within a family are maximally fusable
  /// (shared QList prefix) and the base is subsumption-answerable
  /// from any cached variant; successive families use chains one
  /// step longer. 0 (default) keeps the classic size-swept portfolio.
  int family_variants = 0;
  /// Chain length of the first family's template (family f uses
  /// family_chain_steps + f steps). Only read when family_variants
  /// > 0.
  int family_chain_steps = 6;

  // ---- Cross-document skew (MakeCrossDocPlan) ----

  /// Document-popularity skew across a catalog: document i is drawn
  /// with weight 1/(i+1)^doc_zipf_s. 0 = uniform.
  double doc_zipf_s = 0.0;
  /// Extra load multiplier on document 0 — "one hot doc at 10x load,
  /// many cold" is doc_zipf_s = 0, hot_multiplier = 10 x (num_docs-1)
  /// relative share. Must be > 0.
  double hot_multiplier = 1.0;
};

/// A fixed portfolio of distinct queries with a popularity law.
class Workload {
 public:
  static Result<Workload> Make(const WorkloadSpec& spec);

  size_t size() const { return weights_.size(); }
  const WorkloadSpec& spec() const { return spec_; }

  /// A fresh copy of portfolio entry `index` (NormQuery is move-only,
  /// so every submission materializes its own).
  Result<xpath::NormQuery> Materialize(size_t index) const;

  /// Draw `n` portfolio indices by popularity.
  std::vector<size_t> DrawIndices(size_t n, Rng* rng) const;

 private:
  WorkloadSpec spec_;
  std::vector<double> weights_;
};

struct OpenLoopOptions {
  size_t num_queries = 256;
  /// Mean arrival rate; 0 = all queries arrive at t = now (burst).
  double arrival_rate_qps = 0.0;
  uint64_t seed = 42;
};

struct ClosedLoopOptions {
  size_t num_queries = 256;
  /// Concurrent clients (in-flight queries).
  int concurrency = 64;
  double think_seconds = 0.0;
  uint64_t seed = 42;
};

/// Every driver below takes an optional `outcomes_out`, which receives
/// each submission's outcome in completion order (the service itself
/// keeps no outcome log).

/// Submit `indices` (or a freshly drawn sequence) open-loop, run the
/// service to completion and return its report.
Result<ServiceReport> RunOpenLoop(
    QueryService* service, const Workload& workload,
    const OpenLoopOptions& options,
    std::vector<QueryOutcome>* outcomes_out = nullptr);

/// Drive the service with a fixed population of clients: the i-th
/// completion triggers the next submission. Runs to completion.
/// `indices_out`, if non-null, receives the portfolio index of each
/// submission in submission (= query id) order.
Result<ServiceReport> RunClosedLoop(
    QueryService* service, const Workload& workload,
    const ClosedLoopOptions& options,
    std::vector<size_t>* indices_out = nullptr,
    std::vector<QueryOutcome>* outcomes_out = nullptr);

/// Produces the query for submission number `i` (0-based).
using QueryFactory =
    std::function<Result<xpath::NormQuery>(size_t submission)>;

/// Closed-loop drive with a caller-supplied query source instead of a
/// Workload portfolio (e.g. parboxq --serve re-asks one query text).
Result<ServiceReport> RunClosedLoopWith(
    QueryService* service, const QueryFactory& make_query,
    size_t num_queries, int concurrency, double think_seconds,
    std::vector<QueryOutcome>* outcomes_out = nullptr);

// ---- Cross-document (multi-tenant) driving ----

struct CrossDocOptions {
  size_t num_queries = 256;
  /// Aggregate Poisson arrival rate across ALL documents; 0 = burst
  /// at t = 0.
  double arrival_rate_qps = 0.0;
  uint64_t seed = 42;
};

/// One pre-drawn cross-document arrival sequence: (document, portfolio
/// entry, arrival time) triples. Drawn ONCE and replayed, so scheduler
/// on/off (or FIFO vs fair-share) runs see the byte-identical
/// submission stream — the differential suite's precondition.
struct CrossDocPlan {
  struct Item {
    size_t doc = 0;    ///< index into the caller's document list
    size_t query = 0;  ///< Workload portfolio entry
    double arrival = 0.0;
  };
  std::vector<Item> items;
};

/// Draw a plan: documents by the spec's doc_zipf_s/hot_multiplier
/// law, queries by the portfolio's zipf law, Poisson aggregate
/// interarrivals (or a t=0 burst).
CrossDocPlan MakeCrossDocPlan(const Workload& workload, size_t num_docs,
                              const CrossDocOptions& options);

/// Submit `plan` against `service` (plan doc i -> docs[i]), run the
/// shared substrate to completion, and return the aggregate report
/// (per-document rows included). `(*outcomes_out)[i]` receives docs[i]'s
/// outcomes.
Result<ServiceReport> RunCrossDocOpenLoop(
    CatalogService* service, const Workload& workload,
    const std::vector<std::string>& docs, const CrossDocPlan& plan,
    std::vector<std::vector<QueryOutcome>>* outcomes_out = nullptr);

}  // namespace parbox::service

#endif  // PARBOX_SERVICE_WORKLOAD_H_

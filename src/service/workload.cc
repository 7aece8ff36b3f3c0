#include "service/workload.h"

#include <cmath>
#include <memory>

#include "xmark/queries.h"

namespace parbox::service {

namespace {

/// Family portfolios: entry i belongs to family i / variants and is
/// that family's (i % variants)-th member — member 0 the unqualified
/// base chain, the rest qualified variants. Each family's chain is
/// one step longer than the previous family's.
Result<xpath::NormQuery> MaterializeFamily(const WorkloadSpec& spec,
                                           size_t index) {
  const int family = static_cast<int>(index) / spec.family_variants;
  const int member = static_cast<int>(index) % spec.family_variants;
  return xmark::MakeFamilyQuery(spec.family_chain_steps + family,
                                member - 1);
}

}  // namespace

Result<Workload> Workload::Make(const WorkloadSpec& spec) {
  if (spec.distinct_queries < 1) {
    return Status::InvalidArgument("workload needs at least one query");
  }
  if (spec.family_variants > 0 && spec.family_chain_steps < 1) {
    return Status::InvalidArgument("family chains need at least one step");
  }
  if (spec.family_variants == 0 && spec.min_qlist_size < 2) {
    return Status::InvalidArgument("smallest supported |QList| is 2");
  }
  if (!(spec.hot_multiplier > 0.0) ||
      !std::isfinite(spec.hot_multiplier)) {
    return Status::InvalidArgument(
        "hot_multiplier must be positive and finite");
  }
  if (!std::isfinite(spec.doc_zipf_s)) {
    return Status::InvalidArgument("doc_zipf_s must be finite");
  }
  Workload w;
  w.spec_ = spec;
  for (int i = 0; i < spec.distinct_queries; ++i) {
    // Fail fast if any portfolio entry cannot be built.
    if (spec.family_variants > 0) {
      PARBOX_ASSIGN_OR_RETURN(xpath::NormQuery q,
                              MaterializeFamily(spec, i));
      (void)q;
    } else {
      PARBOX_ASSIGN_OR_RETURN(
          xpath::NormQuery q,
          xmark::MakeQueryOfQListSize(spec.min_qlist_size + i));
      (void)q;
    }
    w.weights_.push_back(std::pow(1.0 / (i + 1), spec.zipf_s));
  }
  return w;
}

Result<xpath::NormQuery> Workload::Materialize(size_t index) const {
  if (index >= size()) return Status::InvalidArgument("no such entry");
  if (spec_.family_variants > 0) {
    return MaterializeFamily(spec_, index);
  }
  return xmark::MakeQueryOfQListSize(spec_.min_qlist_size +
                                     static_cast<int>(index));
}

std::vector<size_t> Workload::DrawIndices(size_t n, Rng* rng) const {
  std::vector<size_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(rng->Weighted(weights_));
  return out;
}

namespace {

/// The completion callback that files outcomes into `*out` (none when
/// `out` is null).
QueryService::CompletionFn RecordInto(std::vector<QueryOutcome>* out) {
  if (out == nullptr) return nullptr;
  return [out](const QueryOutcome& outcome) { out->push_back(outcome); };
}

}  // namespace

Result<ServiceReport> RunOpenLoop(QueryService* service,
                                  const Workload& workload,
                                  const OpenLoopOptions& options,
                                  std::vector<QueryOutcome>* outcomes_out) {
  Rng rng(options.seed);
  const std::vector<size_t> indices =
      workload.DrawIndices(options.num_queries, &rng);
  double arrival = service->now();
  for (size_t index : indices) {
    if (options.arrival_rate_qps > 0.0) {
      // Poisson process: exponential interarrival times.
      arrival += -std::log(1.0 - rng.UniformDouble()) /
                 options.arrival_rate_qps;
    }
    PARBOX_ASSIGN_OR_RETURN(xpath::NormQuery q,
                            workload.Materialize(index));
    PARBOX_ASSIGN_OR_RETURN(
        uint64_t id,
        service->Submit(std::move(q), arrival, RecordInto(outcomes_out)));
    (void)id;
  }
  service->Run();
  PARBOX_RETURN_IF_ERROR(service->status());
  return service->BuildReport();
}

Result<ServiceReport> RunClosedLoopWith(
    QueryService* service, const QueryFactory& make_query,
    size_t num_queries, int concurrency, double think_seconds,
    std::vector<QueryOutcome>* outcomes_out) {
  if (concurrency < 1) {
    return Status::InvalidArgument("need at least one client");
  }
  struct DriverState {
    size_t total;
    size_t next = 0;
    Status error = Status::OK();
  };
  auto state = std::make_shared<DriverState>();
  state->total = num_queries;

  // Submits the next sequence entry; a no-op once exhausted. Owned by
  // shared_ptr so completion callbacks can re-enter it.
  auto submit_next = std::make_shared<std::function<void(double)>>();
  *submit_next = [service, &make_query, think_seconds, state, submit_next,
                  outcomes_out](double arrival) {
    if (!state->error.ok() || state->next >= state->total) return;
    Result<xpath::NormQuery> q = make_query(state->next++);
    if (!q.ok()) {
      state->error = q.status();
      return;
    }
    Result<uint64_t> id = service->Submit(
        std::move(*q), arrival,
        [service, think_seconds, state, submit_next,
         outcomes_out](const QueryOutcome& outcome) {
          if (outcomes_out != nullptr) outcomes_out->push_back(outcome);
          (*submit_next)(service->now() + think_seconds);
        });
    if (!id.ok()) state->error = id.status();
  };

  const size_t initial =
      std::min(static_cast<size_t>(concurrency), num_queries);
  for (size_t i = 0; i < initial; ++i) (*submit_next)(service->now());

  service->Run();
  // Break the submit_next <-> lambda reference cycle.
  *submit_next = nullptr;
  PARBOX_RETURN_IF_ERROR(state->error);
  PARBOX_RETURN_IF_ERROR(service->status());
  return service->BuildReport();
}

CrossDocPlan MakeCrossDocPlan(const Workload& workload, size_t num_docs,
                              const CrossDocOptions& options) {
  CrossDocPlan plan;
  if (num_docs == 0) return plan;
  const WorkloadSpec& spec = workload.spec();
  std::vector<double> doc_weights;
  doc_weights.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    double weight =
        std::pow(1.0 / static_cast<double>(i + 1), spec.doc_zipf_s);
    if (i == 0) weight *= spec.hot_multiplier;
    doc_weights.push_back(weight);
  }
  Rng rng(options.seed);
  plan.items.reserve(options.num_queries);
  double arrival = 0.0;
  for (size_t i = 0; i < options.num_queries; ++i) {
    if (options.arrival_rate_qps > 0.0) {
      // One aggregate Poisson process; each arrival lands on a
      // document by the skew law, so the hot document sees
      // proportionally more of the SAME stream (not an independent,
      // faster clock — exactly how skewed tenant traffic shares a
      // front door).
      arrival += -std::log(1.0 - rng.UniformDouble()) /
                 options.arrival_rate_qps;
    }
    CrossDocPlan::Item item;
    item.doc = rng.Weighted(doc_weights);
    item.query = workload.DrawIndices(1, &rng)[0];
    item.arrival = arrival;
    plan.items.push_back(item);
  }
  return plan;
}

Result<ServiceReport> RunCrossDocOpenLoop(
    CatalogService* service, const Workload& workload,
    const std::vector<std::string>& docs, const CrossDocPlan& plan,
    std::vector<std::vector<QueryOutcome>>* outcomes_out) {
  if (outcomes_out != nullptr) outcomes_out->assign(docs.size(), {});
  for (const CrossDocPlan::Item& item : plan.items) {
    if (item.doc >= docs.size()) {
      return Status::InvalidArgument(
          "plan names document index " + std::to_string(item.doc) +
          " but only " + std::to_string(docs.size()) + " were given");
    }
    PARBOX_ASSIGN_OR_RETURN(xpath::NormQuery q,
                            workload.Materialize(item.query));
    PARBOX_ASSIGN_OR_RETURN(
        uint64_t id,
        service->Submit(docs[item.doc], std::move(q), item.arrival,
                        RecordInto(outcomes_out == nullptr
                                       ? nullptr
                                       : &(*outcomes_out)[item.doc])));
    (void)id;
  }
  service->Run();
  PARBOX_RETURN_IF_ERROR(service->status());
  return service->BuildAggregateReport();
}

Result<ServiceReport> RunClosedLoop(QueryService* service,
                                    const Workload& workload,
                                    const ClosedLoopOptions& options,
                                    std::vector<size_t>* indices_out,
                                    std::vector<QueryOutcome>* outcomes_out) {
  Rng rng(options.seed);
  const std::vector<size_t> indices =
      workload.DrawIndices(options.num_queries, &rng);
  PARBOX_ASSIGN_OR_RETURN(
      ServiceReport report,
      RunClosedLoopWith(
          service,
          [&](size_t i) { return workload.Materialize(indices[i]); },
          options.num_queries, options.concurrency,
          options.think_seconds, outcomes_out));
  if (indices_out != nullptr) *indices_out = indices;
  return report;
}

}  // namespace parbox::service

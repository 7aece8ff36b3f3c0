#include "core/round.h"

#include <memory>
#include <utility>

#include "exec/codec.h"

namespace parbox::core {

namespace {

/// `round` is read-only once started; `result` and `pending_sites` are
/// touched only in coordinator context.
struct RoundState {
  Round round;
  RoundDoneFn done;
  RoundResult result;
  size_t pending_sites = 0;
};

/// One site's reply, built in the site's context; the coordinator
/// reads the counters once the reply is delivered.
struct SiteReply {
  size_t remaining = 0;
  uint64_t ops = 0, walks = 0, shared_entries = 0;
  std::shared_ptr<exec::TripletBatch> batch =
      std::make_shared<exec::TripletBatch>();
};

/// Coordinator context: validate and splice one site's reply; after
/// the last site, hand the result to the caller.
void Collect(RoundState& state, size_t site_index, const SiteReply& reply,
             exec::Parcel delivered) {
  const Round& round = state.round;
  RoundResult& result = state.result;
  if (round.work[site_index].site != round.coordinator) {
    result.reply_bytes += delivered.wire_bytes();
    ++result.reply_messages;
  }
  result.ops += reply.ops;
  result.walks += reply.walks;
  result.shared_entries += reply.shared_entries;
  Result<exec::TripletBatch> batch =
      exec::TakeTripletBatch(std::move(delivered), round.factory);
  if (!batch.ok() && result.status.ok()) result.status = batch.status();
  if (batch.ok()) {
    for (exec::TripletBatch::Item& item : batch->items) {
      if (item.key >= round.systems.size() || item.slot < 0 ||
          static_cast<size_t>(item.slot) >=
              round.systems[item.key]->table_size()) {
        if (result.status.ok()) {
          result.status = Status::Internal("batch item out of range");
        }
        continue;
      }
      if (round.systems[item.key]->Splice(std::move(item.eq))) {
        result.changed[item.key] = true;
      }
    }
  }
  if (--state.pending_sites == 0) state.done(std::move(result));
}

/// Site context, once the site's last walk drains: its one reply.
void SendReply(const std::shared_ptr<RoundState>& state, size_t site_index,
               const std::shared_ptr<SiteReply>& reply) {
  const Round& round = state->round;
  const sim::SiteId s = round.work[site_index].site;
  exec::Parcel parcel = exec::MakeTripletBatchParcel(
      round.backend->site_factory(s), std::move(reply->batch));
  round.backend->Send(s, round.coordinator, std::move(parcel), "triplet",
                      [state, site_index, reply](exec::Parcel delivered) {
                        Collect(*state, site_index, *reply,
                                std::move(delivered));
                      });
}

/// Site context, on the request's delivery: ONE walk per fragment
/// emits every lane's triplet; items land fragment outer, lane inner.
void EvaluateSite(const std::shared_ptr<RoundState>& state,
                  size_t site_index) {
  const Round& round = state->round;
  exec::ExecBackend& backend = *round.backend;
  const SiteWork& work = round.work[site_index];
  auto reply = std::make_shared<SiteReply>();
  reply->remaining = work.fragments.size();
  if (work.fragments.empty()) return SendReply(state, site_index, reply);
  for (frag::FragmentId f : work.fragments) {
    xpath::EvalCounters counters;
    xpath::BatchEvalStats stats;
    std::vector<bexpr::FragmentEquations> eqs;
    const double walk_start = round.tracer != nullptr ? backend.now() : 0.0;
    if (round.set->is_live(f)) {
      eqs = PartialEvalFragmentBatch(&backend.site_factory(work.site),
                                     *round.batch, *round.set, f, &counters,
                                     &stats, round.node_hook);
      ++reply->walks;
      reply->shared_entries += stats.shared_entries;
    }
    for (size_t k = 0; k < round.systems.size(); ++k) {
      exec::TripletBatch::Item& item = reply->batch->items.emplace_back();
      item.key = k;
      item.slot = f;
      if (!eqs.empty()) item.eq = std::move(eqs[k]);
    }
    reply->ops += counters.ops;
    if (round.tracer != nullptr) {
      // The walk ran right here, in the request's delivery; the
      // Compute below queues the site and encodes the reply.
      round.tracer->RecordInlineSpan("site.eval", work.site, walk_start,
                                     backend.now(), counters.ops);
      round.tracer->SetNextComputeName("site.reply");
    }
    backend.Compute(work.site, counters.ops, [state, site_index, reply] {
      if (--reply->remaining == 0) SendReply(state, site_index, reply);
    });
  }
}

}  // namespace

std::vector<SiteWork> PlanWork(const SitePlan& plan, uint64_t request_bytes) {
  std::vector<SiteWork> work;
  work.reserve(plan.site_fragments.size());
  for (const auto& [s, fragments] : plan.site_fragments) {
    work.push_back({s, fragments, request_bytes});
  }
  return work;
}

void StartRound(Round round, RoundDoneFn done) {
  auto state = std::make_shared<RoundState>();
  state->result.changed.assign(round.systems.size(), false);
  state->pending_sites = round.work.size();
  state->round = std::move(round);
  state->done = std::move(done);
  if (state->pending_sites == 0) return state->done(std::move(state->result));
  const Round& r = state->round;
  for (size_t i = 0; i < r.work.size(); ++i) {
    const SiteWork& work = r.work[i];
    r.backend->RecordVisit(work.site);  // the site's one visit
    if (work.site != r.coordinator) {
      state->result.request_bytes += work.request_bytes;
      ++state->result.request_messages;
    }
    r.backend->Send(r.coordinator, work.site,
                    exec::Parcel::OfSize(work.request_bytes), r.tag,
                    [state, i](exec::Parcel) { EvaluateSite(state, i); });
  }
}

}  // namespace parbox::core

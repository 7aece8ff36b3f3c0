#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "xpath/normalize.h"

namespace parbox_bench {

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

Client::Client(service::QueryService* service, const frag::FragmentSet& set,
               const WorkloadSpec& spec, uint64_t seed, obs::Tracer* tracer)
    : service_(service),
      backend_(service->backend()),
      spec_(spec),
      seed_(seed),
      tracer_(tracer),
      schedule_(spec, seed, spec.read_rate, spec.delta_rate),
      targets_(set),
      check_rng_(seed ^ 0x5eedc0deull) {
  if (tracer_ != nullptr) bench_trace_ = tracer_->MintTraceId();
}

int Client::CheckedTextId(const std::string& text) {
  if (auto it = text_ids_.find(text); it != text_ids_.end()) {
    return it->second;
  }
  if (checked_texts_ >= max_checked_texts_) return -1;
  ++checked_texts_;
  const int id = static_cast<int>(texts_.size());
  text_ids_.emplace(text, id);
  texts_.push_back(text);
  return id;
}

void Client::Span(const char* name, double start, double end) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  obs::TraceEvent e;
  e.name = name;
  e.category = "bench";
  e.trace_id = bench_trace_;
  e.span_id = tracer_->MintSpanId();
  e.site = backend_.coordinator();
  e.ts_seconds = start;
  e.dur_seconds = end - start;
  tracer_->Record(std::move(e));
}

bool Client::SendRead(const std::string& text, double due, bool sampled,
                      bool check, PhaseSamples* samples,
                      service::QueryService::CompletionFn then) {
  ++samples->reads_sent;
  const double t0 = backend_.now();
  Result<xpath::NormQuery> q = xpath::CompileQuery(text);
  const double t1 = backend_.now();
  if (!q.ok()) return false;
  const int text_id = check ? CheckedTextId(text) : -1;
  Result<uint64_t> id = service_->Submit(
      std::move(*q), due,
      [this, due, sampled, text_id, samples,
       then = std::move(then)](const service::QueryOutcome& outcome) {
        ++samples->reads_done;
        if (sampled) samples->read_latency.push_back(backend_.now() - due);
        if (text_id >= 0) checks_.push_back({text_id, outcome.answer});
        if (then) then(outcome);
      });
  const double t2 = backend_.now();
  if (!id.ok()) return false;
  if (sampled) {
    samples->compile.push_back(t1 - t0);
    samples->submit.push_back(t2 - t1);
  }
  Span("bench.compile", t0, t1);
  Span("bench.submit", t1, t2);
  return true;
}

void Client::SendDelta(const DeltaSpec& spec, double due, bool sampled,
                       PhaseSamples* samples) {
  ++samples->updates_sent;
  service_->SubmitDelta(
      targets_.Resolve(spec), due,
      [this, due, sampled,
       samples](const Result<frag::AppliedDelta>& applied) {
        if (!applied.ok()) return;
        ++samples->updates_done;
        const double now = backend_.now();
        if (sampled) {
          samples->update_latency.push_back(now - due);
          samples->update_done_at.push_back(now);
          Span("bench.update", due, now);
        }
      });
}

// ---- Open-loop chain ----------------------------------------------------

void Client::StartChain(ArrivalSchedule* schedule, double seconds,
                        bool sampled, PhaseSamples* samples) {
  chain_ = schedule;
  const double now = backend_.now();
  origin_ = now - schedule->clock();
  end_ = now + seconds;
  chain_sampled_ = sampled;
  chain_samples_ = samples;
  ArmNext();
}

void Client::ArmNext() {
  if (!chain_->Next(end_ - origin_, &pending_)) return;
  const double due = origin_ + pending_.at;
  backend_.ScheduleAt(due, [this, due] { Fire(due); });
}

void Client::Fire(double due) {
  if (due >= end_) return;  // the chain was cut short (closed legs)
  if (chain_sampled_) chain_samples_->late.push_back(backend_.now() - due);
  if (pending_.is_delta) {
    SendDelta(pending_.delta, due, chain_sampled_, chain_samples_);
  } else {
    SendRead(pending_.text, due, chain_sampled_,
             chain_sampled_ && check_open_, chain_samples_, nullptr);
  }
  ArmNext();
}

PhaseSamples Client::RunOpenLoop(double seconds, bool sampled) {
  PhaseSamples samples;
  StartChain(&schedule_, seconds, sampled, &samples);
  service_->Run();
  return samples;
}

// ---- Closed loop --------------------------------------------------------

double Client::RunClosedLoop(int clients, uint64_t reads, double max_seconds,
                             double check_share, PhaseSamples* samples) {
  closed_samples_ = samples;
  check_share_ = check_share;
  closed_left_ = reads;
  closed_unfinished_ = reads;
  const uint64_t done_before = samples->reads_done;
  const double start = backend_.now();
  closed_deadline_ = start + max_seconds;
  last_done_ = start;
  if (spec_.delta_rate > 0.0) {
    // The delta feed runs until the last read finishes, and never past
    // the deadline: a feed whose deltas outlast their period keeps
    // timers due in the past, which sort ahead of every read's
    // admission, so only its end lets the reads finish.
    if (delta_schedule_ == nullptr) {
      delta_schedule_ = std::make_unique<ArrivalSchedule>(
          spec_, seed_ + 1, 0.0, spec_.delta_rate);
    }
    StartChain(delta_schedule_.get(), max_seconds, false, samples);
  }
  for (int c = 0; c < clients; ++c) ClosedNext();
  service_->Run();
  closed_samples_ = nullptr;
  const uint64_t done = samples->reads_done - done_before;
  return last_done_ > start ? static_cast<double>(done) / (last_done_ - start)
                            : 0.0;
}

void Client::ClosedNext() {
  while (closed_left_ > 0) {
    if (backend_.now() >= closed_deadline_) {  // out of time: send no more
      closed_unfinished_ -= closed_left_;
      closed_left_ = 0;
      if (closed_unfinished_ == 0) end_ = backend_.now();
      return;
    }
    --closed_left_;
    const bool check = check_rng_.UniformDouble() < check_share_;
    if (SendRead(schedule_.queries().Next(), backend_.now(), false, check,
                 closed_samples_, [this](const service::QueryOutcome&) {
                   last_done_ = backend_.now();
                   ClosedFinished();
                   ClosedNext();
                 })) {
      return;  // its completion sends this client's next read
    }
    ClosedFinished();  // refused
  }
}

void Client::ClosedFinished() {
  if (--closed_unfinished_ == 0) end_ = backend_.now();
}

// ---- Re-ask -------------------------------------------------------------

void Client::ReaskPortfolio() {
  PhaseSamples samples;
  max_checked_texts_ = std::numeric_limits<size_t>::max();
  for (const std::string& text : schedule_.queries().portfolio()) {
    SendRead(text, backend_.now(), false, true, &samples, nullptr);
  }
  service_->Run();
}

}  // namespace parbox_bench

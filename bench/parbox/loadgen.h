// The benchmark's client: drives a QueryService the way a user would,
// with XPath *text* compiled at send time.
//
// Open loop: one Poisson timer chain on the coordinator
// (backend().ScheduleAt, one timer pending at a time). At each due time
// it compiles the text and calls Submit(q, due, done) — or SubmitDelta —
// and every operation is timed from its due time, so a late generator
// or a stalled coordinator shows in the latency instead of being hidden
// by Submit's clamp of arrival to now().
//
// Closed loop: N clients, each sending its next read from the previous
// read's completion callback; reads completed per second is capacity.
//
// Samples are kept exactly, in the client's own vectors.

#ifndef PARBOX_BENCH_PARBOX_LOADGEN_H_
#define PARBOX_BENCH_PARBOX_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "workload.h"

namespace parbox_bench {

/// What the client saw in one phase. Times are seconds.
struct PhaseSamples {
  std::vector<double> read_latency;    ///< due -> done
  std::vector<double> update_latency;  ///< due -> done
  std::vector<double> update_done_at;  ///< backend clock at done
  std::vector<double> late;            ///< generator: fire - due
  std::vector<double> compile;         ///< xpath::CompileQuery
  std::vector<double> submit;          ///< QueryService::Submit
  uint64_t reads_sent = 0;
  uint64_t reads_done = 0;  ///< submitted and completed
  uint64_t updates_sent = 0;
  uint64_t updates_done = 0;  ///< applied without error
};

/// A read whose answer is to be checked against the oracle.
struct AnswerCheck {
  int text_id = 0;
  bool answer = false;
};

class Client {
 public:
  /// `set` is the deployment the service evaluates (delta targets).
  /// `tracer` (may be null) receives the client's own spans: compile,
  /// submit, and each update from due to done.
  Client(service::QueryService* service, const frag::FragmentSet& set,
         const WorkloadSpec& spec, uint64_t seed, obs::Tracer* tracer);

  /// Open loop from now() for `seconds`, continuing the workload's
  /// arrival schedule where the previous phase left it; drains before
  /// returning. Unsampled phases (warm-up) keep no samples and check
  /// no answers.
  PhaseSamples RunOpenLoop(double seconds, bool sampled);

  /// `clients` closed-loop readers sending `reads` reads in all, with
  /// the workload's deltas still arriving open-loop. Returns reads
  /// completed per second. Each read is checked with probability
  /// `check_share`. A fixed count, not a fixed time, keeps the work a
  /// leg leaves behind (retained outcomes, memory) independent of how
  /// fast the host runs; no read or delta is sent after `max_seconds`,
  /// so a service that the delta feed outruns still ends the leg.
  double RunClosedLoop(int clients, uint64_t reads, double max_seconds,
                       double check_share, PhaseSamples* samples);

  /// After quiescence: send every portfolio text once more and record
  /// each answer for checking; drains.
  void ReaskPortfolio();

  /// Checks recorded so far; texts() resolves their ids.
  const std::vector<AnswerCheck>& checks() const { return checks_; }
  const std::vector<std::string>& texts() const { return texts_; }
  /// Whether open-loop reads are checked (off on read_write, whose
  /// answers move under the deltas), and how many distinct texts may
  /// be checked at most.
  void set_checking(bool open_loop, size_t max_texts) {
    check_open_ = open_loop;
    max_checked_texts_ = max_texts;
  }

 private:
  /// Id of `text` if it is (or may now become) a checked text, else -1.
  int CheckedTextId(const std::string& text);
  void StartChain(ArrivalSchedule* schedule, double seconds, bool sampled,
                  PhaseSamples* samples);
  void ArmNext();
  void Fire(double due);
  /// Compile `text` and submit it due at `due`; false if refused.
  bool SendRead(const std::string& text, double due, bool sampled,
                bool check, PhaseSamples* samples,
                service::QueryService::CompletionFn then);
  void SendDelta(const DeltaSpec& spec, double due, bool sampled,
                 PhaseSamples* samples);
  void ClosedNext();
  void ClosedFinished();
  void Span(const char* name, double start, double end);

  service::QueryService* service_;
  exec::ExecBackend& backend_;
  const WorkloadSpec& spec_;
  uint64_t seed_;
  obs::Tracer* tracer_;
  uint64_t bench_trace_ = 0;
  ArrivalSchedule schedule_;
  /// The closed leg's delta-only schedule.
  std::unique_ptr<ArrivalSchedule> delta_schedule_;
  DeltaTargets targets_;
  Rng check_rng_;

  // The running open-loop chain. Schedules count from 0; `origin_` is
  // the backend time of schedule time 0 for this phase.
  ArrivalSchedule* chain_ = nullptr;
  double origin_ = 0.0;
  double end_ = 0.0;
  bool chain_sampled_ = false;
  Arrival pending_;
  PhaseSamples* chain_samples_ = nullptr;

  // The closed loop.
  uint64_t closed_left_ = 0;        ///< reads still to send
  uint64_t closed_unfinished_ = 0;  ///< reads not yet completed or refused
  double closed_deadline_ = 0.0;    ///< no read is sent after this
  double last_done_ = 0.0;          ///< last completion
  double check_share_ = 0.0;
  PhaseSamples* closed_samples_ = nullptr;

  bool check_open_ = true;
  size_t max_checked_texts_ = 0;
  size_t checked_texts_ = 0;
  std::unordered_map<std::string, int> text_ids_;
  std::vector<std::string> texts_;
  std::vector<AnswerCheck> checks_;
};

/// Nearest-rank percentile of `v`; 0 when empty.
double Percentile(std::vector<double> v, double pct);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

}  // namespace parbox_bench

#endif  // PARBOX_BENCH_PARBOX_LOADGEN_H_

// ExecBackend: the pluggable execution substrate under Session, the
// evaluators, and QueryService.
//
// Every distributed algorithm in this repository needs the same three
// things from whatever actually runs it: dispatch per-site work units,
// transport payloads (serialized triplets, control hops) between sites
// and the coordinator, and meter traffic / visits / clock. ExecBackend
// captures exactly that, so one evaluator implementation runs on
//
//   * SimBackend        — the deterministic simulated cluster
//                         (exec/sim_backend.h): virtual clock,
//                         bit-identical figures; the differential
//                         oracle;
//   * ThreadPoolBackend — a persistent OS-thread worker pool: genuine
//                         parallelism for the PDOM scenario of Sec. 1,
//                         where parbox is the query kernel of a
//                         centralized store; and
//   * ProcessBackend    — site daemons in separate processes
//                         (exec/process_backend.h).
//
// Every backend starts with no sites. AddNamespace alone adds them, to
// one site table kept in this base class (per global site: its
// namespace's session factory, whether it is the coordinator, its
// visit counter), which answers num_sites, coordinator and the visits.
//
// ## The execution-context contract
//
// Each site has an *execution context*. A backend guarantees:
//
//   1. Tasks of one site never run concurrently with each other (a
//      site's compute queue is serial, as in the paper's Experiment 4).
//   2. `Send(from, to, ...)`'s deliver callback runs in `to`'s context;
//      `Compute(site, ...)`'s done callback runs in `site`'s context.
//   3. `Send` and `Compute` must be invoked from `from`'s / the
//      enclosing context (the coordinator's, before Drain) — true of
//      every evaluator, and what lets ThreadPoolBackend keep metering
//      lock-free.
//   4. Formula work performed in a site's context must intern into
//      `site_factory(site)`. On SimBackend every site shares the
//      session's factory; on ThreadPoolBackend each worker owns one,
//      and the coordinator site uses the session's.
//   5. Payloads holding factory-relative data (ExprIds) must be built
//      with Parcel::Coded so the backend can run the wire codec when a
//      message crosses factory domains. Enqueue/dequeue pairs establish
//      happens-before, so plain data handed off through parcels (or
//      written strictly before a Send and read only after its
//      delivery) needs no further synchronization.
//
// Evaluator code that follows the contract is substrate-agnostic; the
// differential suite (tests/backend_differential_test.cc) holds every
// registered evaluator to bit-identical answers on every backend.

#ifndef PARBOX_EXEC_BACKEND_H_
#define PARBOX_EXEC_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "boolexpr/expr.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/traffic.h"

namespace parbox::exec {

using SiteId = sim::SiteId;

/// A message payload crossing between execution contexts. Always knows
/// its wire size (what the transport meters); carries the content as a
/// typed local value, as wire bytes, or both:
///
///   * OfSize  — metering only; the receiver reconstructs the content
///               from shared state (query broadcasts, control hops).
///   * Plain   — a typed value with no factory-relative ids; crosses by
///               value on every backend (e.g. resolved bool vectors).
///   * Coded   — a typed value holding ExprIds plus its wire encoder.
///               Backends whose sender and receiver share a factory
///               pass the value through; others call Encode() in the
///               *sender's* context and deliver bytes the receiver
///               decodes into its own factory (exec/codec.h).
class Parcel {
 public:
  Parcel() = default;

  static Parcel OfSize(uint64_t wire_bytes) {
    Parcel p;
    p.wire_bytes_ = wire_bytes;
    return p;
  }

  template <typename T>
  static Parcel Plain(std::shared_ptr<T> value, uint64_t wire_bytes) {
    Parcel p;
    p.local_ = std::static_pointer_cast<void>(std::move(value));
    p.wire_bytes_ = wire_bytes;
    return p;
  }

  template <typename T>
  static Parcel Coded(std::shared_ptr<T> value, uint64_t wire_bytes,
                      std::function<std::string()> encode) {
    Parcel p;
    p.local_ = std::static_pointer_cast<void>(std::move(value));
    p.wire_bytes_ = wire_bytes;
    p.encode_ = std::move(encode);
    return p;
  }

  /// Receiver-side reconstruction of a parcel whose content arrived as
  /// wire bytes from another process (exec/process_backend.h): behaves
  /// exactly like a Coded parcel after Encode() — the receiver's
  /// Take* codec decodes it into its own factory.
  static Parcel FromWire(std::string wire, uint64_t wire_bytes) {
    Parcel p;
    p.wire_ = std::move(wire);
    p.has_wire_ = true;
    p.wire_bytes_ = wire_bytes;
    return p;
  }

  /// Bytes this payload occupies on the wire (the metered quantity;
  /// envelope framing such as tags or routing ids is not counted,
  /// matching SimBackend's accounting).
  uint64_t wire_bytes() const { return wire_bytes_; }

  bool has_local() const { return local_ != nullptr; }
  template <typename T>
  std::shared_ptr<T> local() const {
    return std::static_pointer_cast<T>(local_);
  }

  bool has_wire() const { return has_wire_; }
  const std::string& wire() const { return wire_; }

  /// True iff this parcel holds factory-relative data that must run
  /// the wire codec to cross into a different factory's context.
  bool needs_encoding() const { return encode_ != nullptr; }

  /// Backend-side, sender context: materialize the wire bytes and drop
  /// the local value (its ids are meaningless to the receiver).
  void Encode() {
    if (!encode_) return;
    wire_ = encode_();
    has_wire_ = true;
    local_.reset();
    encode_ = nullptr;
  }

  /// Trace metadata (obs/trace.h): stamped by the sender's tracing
  /// layer, read back in the destination's context to re-establish the
  /// message's causal context. Rides the parcel across every backend
  /// unchanged; 0 means untraced. Not counted in wire_bytes (like the
  /// tag/routing envelope).
  void set_trace(uint64_t trace_id, uint64_t span_id) {
    trace_id_ = trace_id;
    trace_span_ = span_id;
  }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t trace_span() const { return trace_span_; }

 private:
  std::shared_ptr<void> local_;
  std::function<std::string()> encode_;
  std::string wire_;
  uint64_t wire_bytes_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t trace_span_ = 0;
  bool has_wire_ = false;
};

class ExecBackend {
 public:
  using Task = std::function<void()>;
  using DeliverFn = std::function<void(Parcel)>;

  ExecBackend() = default;
  ExecBackend(const ExecBackend&) = delete;
  ExecBackend& operator=(const ExecBackend&) = delete;
  virtual ~ExecBackend() = default;

  /// Registry name ("sim", "threads", "proc").
  virtual std::string_view name() const = 0;

  /// The only way sites come into being (every backend starts with
  /// none): grow the site table by `num_sites` fresh global sites
  /// forming a namespace, so several deployments can share one worker
  /// pool / one virtual clock. `coordinator` (namespace-local) names
  /// the site whose deliveries run in coordinator context, with formula
  /// work interned into `*coordinator_factory` (the owning session's;
  /// must outlive the backend and keep its address). Returns the
  /// namespace's base global site id: its local site s is global site
  /// base + s. Requires quiescence. 0 sites, a coordinator outside
  /// [0, num_sites) or a null factory are InvalidArgument.
  Result<SiteId> AddNamespace(int num_sites, SiteId coordinator,
                              bexpr::ExprFactory* coordinator_factory);

  /// Sites added so far, and the first namespace's coordinator (-1
  /// before any). Decorators forward these and the visit meters to the
  /// backend they wrap.
  virtual int num_sites() const { return static_cast<int>(sites_.size()); }
  virtual SiteId coordinator() const { return coordinator_; }

  /// Factory for formula work performed in `site`'s context.
  virtual bexpr::ExprFactory& site_factory(SiteId site) = 0;

  /// Enqueue `ops` abstract kernel operations on `site`'s serial
  /// queue; `done` runs in `site`'s context after them.
  virtual void Compute(SiteId site, uint64_t ops, Task done) = 0;

  /// Transport `parcel` from `from` to `to`; `deliver` runs in `to`'s
  /// context. Local (from == to) hand-offs are free and unmetered.
  virtual void Send(SiteId from, SiteId to, Parcel parcel,
                    std::string_view tag, DeliverFn deliver) = 0;

  /// Count a work-initiating contact of `site` (safe from any context).
  virtual void RecordVisit(SiteId site) {
    sites_[static_cast<size_t>(site)].visits.fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Run `task` in coordinator context once now() >= `when`. Must be
  /// called from coordinator context (admission windows, arrivals).
  virtual void ScheduleAt(double when, Task task) = 0;
  /// The backend clock: virtual seconds on the sim, real seconds since
  /// Reset on the thread pool.
  virtual double now() const = 0;

  /// Drive all outstanding work (and due timers) to completion; blocks
  /// the calling (coordinator) thread and returns the makespan.
  virtual double Drain() = 0;

  /// Rewind meters and clock to a fresh state between executions.
  /// Interned site-factory formulas persist, mirroring the session
  /// factory's lifetime. Requires quiescence (after Drain).
  virtual void Reset() = 0;

  /// Run `mutate` exclusively against in-flight site work: site-context
  /// tasks hold a shared document lock, `mutate` the exclusive one.
  /// A single-threaded backend runs it directly. Call from coordinator
  /// context only.
  virtual void MutateExclusive(const Task& mutate) = 0;

  // ---- Metering (stable once quiescent) ----

  /// Merged traffic across every context.
  virtual const sim::TrafficStats& traffic() const = 0;
  virtual uint64_t visits_at(SiteId site) const {
    return sites_[static_cast<size_t>(site)].visits.load(
        std::memory_order_relaxed);
  }
  /// visits_at() of every site, in site order.
  std::vector<uint64_t> visits() const {
    std::vector<uint64_t> out(static_cast<size_t>(num_sites()));
    for (SiteId s = 0; s < num_sites(); ++s) {
      out[static_cast<size_t>(s)] = visits_at(s);
    }
    return out;
  }
  /// Sum of busy time across sites (virtual on sim, measured on
  /// threads) — the "total computation" rows of Fig. 4.
  virtual double total_busy_seconds() const = 0;
  /// Add backend-specific counters into `stats->counters` under their
  /// exported names: "exec.sim.events", "exec.tasks", "exec.workers",
  /// "exec.proc.*".
  virtual void AddBackendStats(obs::MetricsSnapshot* stats) const = 0;

  /// Monotonic per-site recovery counter: bumped when the remote
  /// state backing `site`'s context was lost (the process backend's
  /// hosting daemon restarted). Consumers (Session::plan) snapshot
  /// epochs and re-ship a site's fragment state when its epoch
  /// advances. In-process backends' site state cannot vanish, so the
  /// default is a constant 0.
  virtual uint64_t RecoveryEpoch(SiteId site) const {
    (void)site;
    return 0;
  }

 protected:
  /// The session factory of `site`'s namespace.
  bexpr::ExprFactory& namespace_factory(SiteId site) const {
    return *sites_[static_cast<size_t>(site)].factory;
  }
  /// True iff `site` is its namespace's coordinator.
  bool is_coordinator_site(SiteId site) const {
    return sites_[static_cast<size_t>(site)].coordinator;
  }
  /// Zero every site's visits (Reset).
  void ResetVisits();
  /// AddNamespace, once its arguments are valid and before the site
  /// table grows by `count`: size per-site state, check quiescence.
  virtual void OnAddSites(int count) { (void)count; }

 private:
  struct Site {
    bexpr::ExprFactory* factory;
    bool coordinator;
    std::atomic<uint64_t> visits{0};
  };
  /// Indexed by global site id. A deque, so growth never relocates the
  /// atomics; grown only while quiescent, because worker contexts read
  /// it (site_factory, RecordVisit).
  std::deque<Site> sites_;
  SiteId coordinator_ = -1;
};

/// Name -> factory registry of every linked-in backend, mirroring the
/// EvaluatorRegistry UX: unknown specs error with the registered names
/// listed.
class ExecBackendRegistry {
 public:
  /// `arg` is the spec suffix after ':' ("8" in "threads:8"), empty
  /// when absent.
  using Factory = Result<std::unique_ptr<ExecBackend>> (*)(
      const sim::NetworkParams& network, std::string_view arg);

  static ExecBackendRegistry& Instance();

  /// `grammar` is the full spec grammar shown to users ("threads[:W]",
  /// "proc[:N[,tcp]]"); equal to `name` when the backend takes no
  /// options.
  void Register(int order, std::string name, std::string grammar,
                Factory factory);

  std::vector<std::string> Names() const;
  std::string NamesJoined(char sep = '|') const;
  /// The registered spec grammar for `name` (`name` itself if unknown).
  std::string Grammar(std::string_view name) const;

  /// Create a backend with no sites from a spec "name" or "name:arg"
  /// (`network` is the sim's). Unknown names get an InvalidArgument
  /// listing every registered backend.
  Result<std::unique_ptr<ExecBackend>> CreateOrError(
      std::string_view spec, const sim::NetworkParams& network = {}) const;

  struct Registrar {
    Registrar(int order, std::string name, std::string grammar,
              Factory factory);
  };

 private:
  struct Entry {
    std::string name;
    std::string grammar;
    int order;
    Factory factory;
  };
  std::vector<Entry> entries_;  // kept sorted by (order, name)
};

#define PARBOX_REGISTER_EXEC_BACKEND(order, name, grammar, factory)  \
  static const ::parbox::exec::ExecBackendRegistry::Registrar        \
      parbox_exec_backend_registrar_##order(order, name, grammar, factory)

/// The session-default backend spec: $PARBOX_BACKEND if set (the
/// `ctest -L backends` jobs run existing suites under "threads" this
/// way), else "sim".
std::string DefaultBackendSpec();

}  // namespace parbox::exec

#endif  // PARBOX_EXEC_BACKEND_H_

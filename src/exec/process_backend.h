// ProcessBackend: the ExecBackend whose sites live in separate
// processes — a coordinator plus N `sited` site daemons connected by
// Unix-domain (default) or TCP sockets, making the paper's
// "distributed" literal instead of simulated.
//
// ## Division of labor
//
// The ExecBackend contract hands site work to backends as C++
// closures over coordinator-process state (fragment sets, engines,
// round buffers) — closures cannot cross a process boundary. The
// process backend therefore splits the two planes the contract
// bundles:
//
//   * Control/compute plane — per-site serial execution contexts run
//     in the coordinator process, single-threaded inside Drain()'s
//     poll loop, each daemon's sites backed by a coordinator-side
//     shadow ExprFactory (exactly the factory-domain layout the
//     thread pool gives its workers).
//   * Data plane — every parcel between distinct sites crosses a real
//     socket. The frame (net/wire.h) carries the parcel's tag, wire
//     size, trace ids, and — for Coded parcels that crossed factory
//     domains — the actual codec bytes. The daemon hosting the
//     destination site dedups, meters, decodes the payload into its
//     own pinned per-shard ExprFactory (the shipped formulas live
//     remotely), and echoes the payload; the coordinator rebuilds the
//     delivered parcel from the echoed bytes. Delivery happens only
//     after the round trip — remote I/O is on the critical path, as
//     EMBANKS-style cost models assume.
//
// Metering stays coordinator-side and logical (bytes = the parcel's
// wire size, once per Send, like every backend), so answers, visits,
// traffic and per-tag breakdowns are bit-identical to the sim oracle —
// the backend-differential suite holds proc to that. Transport
// overhead (frames, retries, RTT) is reported separately via
// AddBackendStats, and the daemons' own meters come back in
// STATS_RESP frames for cross-checking (net_test.cc).
//
// ## Robustness state machine
//
//   pending request --timeout--> retransmit (same seq, attempt+1,
//        exponential backoff) --max_retries--> declare link dead
//   link dead --spawn mode--> SIGKILL + respawn `sited`, await HELLO
//             --connect mode--> redial with backoff
//   HELLO with a NEW boot nonce --> the daemon's in-memory state is
//        gone: bump the daemon's sites' RecoveryEpoch (Session::plan
//        re-ships their fragments via the migration dirty-record
//        path) and retransmit every pending request
//   liveness: PING after heartbeat_interval of request silence;
//        liveness_timeout without any bytes --> declare dead
//
// The protocol is at-least-once end to end: retransmissions reuse
// their seq, daemons dedup by seq (re-ack without re-meter), the
// coordinator drops duplicate acks — so the deterministic fault
// injector (PARBOX_NET_FAULTS=seed, net/faults.h) can drop, delay and
// duplicate data-plane frames without changing any observable result.
//
// Spec grammar: proc[:N[,tcp]] — N daemons (default 2), Unix-domain
// sockets unless ",tcp" (127.0.0.1, ephemeral ports). Environment:
//   PARBOX_SITED_BIN      sited binary (default: alongside /proc/self/exe)
//   PARBOX_SITED_ADDRS    comma list of standalone daemons to connect
//                         to instead of spawning (overrides N)
//   PARBOX_SITED_LOG_DIR  daemon log directory (spawn mode)
//   PARBOX_NET_TIMEOUT_MS request timeout base (default 200)
//   PARBOX_NET_RETRIES    retransmits before declaring dead (default 5)
//   PARBOX_NET_HEARTBEAT_MS  liveness probe interval (default 500)
//   PARBOX_NET_FAULTS     fault-injection seed (0/unset = off)

#ifndef PARBOX_EXEC_PROCESS_BACKEND_H_
#define PARBOX_EXEC_PROCESS_BACKEND_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "exec/backend.h"
#include "net/conn.h"
#include "net/wire.h"

namespace parbox::exec {

class ProcessBackend final : public ExecBackend {
 public:
  struct Options {
    int num_daemons = 2;
    bool tcp = false;
    /// Non-empty = connect mode: dial these standalone daemons
    /// instead of spawning (count overrides num_daemons).
    std::vector<std::string> connect_addrs;
    double request_timeout = 0.2;      ///< seconds; doubles per retry
    int max_retries = 5;
    double heartbeat_interval = 0.5;   ///< PING after this much silence
    double liveness_timeout = 5.0;     ///< silence -> link dead
    int max_respawns = 8;              ///< consecutive failures -> fatal
    uint64_t fault_seed = 0;
    std::string sited_bin;             ///< resolved in FromEnv
    std::string log_dir;

    /// Defaults + the PARBOX_* environment knobs above.
    static Options FromEnv();
  };

  /// Spawns (or connects) the daemon fleet and completes the HELLO
  /// handshake; fails with the underlying reason (missing sited
  /// binary, nobody listening, handshake timeout) instead of
  /// constructing a dead backend.
  static Result<std::unique_ptr<ExecBackend>> Make(const Options& options);

  ~ProcessBackend() override;

  std::string_view name() const override { return "proc"; }

  bexpr::ExprFactory& site_factory(SiteId site) override;

  void Compute(SiteId site, uint64_t ops, Task done) override;
  void Send(SiteId from, SiteId to, Parcel parcel, std::string_view tag,
            DeliverFn deliver) override;

  void ScheduleAt(double when, Task task) override;
  double now() const override;

  double Drain() override;
  void Reset() override;

  void MutateExclusive(const Task& mutate) override { mutate(); }

  const sim::TrafficStats& traffic() const override { return traffic_; }
  double total_busy_seconds() const override { return busy_seconds_; }
  void AddBackendStats(obs::MetricsSnapshot* stats) const override;

  uint64_t RecoveryEpoch(SiteId site) const override;

  // ---- Introspection (tests, tools) ----

  int num_daemons() const { return static_cast<int>(links_.size()); }
  /// Spawn mode: the daemon's pid (kill it to exercise recovery);
  /// -1 in connect mode.
  pid_t daemon_pid(int index) const;
  uint64_t reconnects() const { return reconnects_; }
  uint64_t retries() const { return retries_; }
  /// Links torn down because the inbound byte stream was malformed
  /// (oversize/corrupt length prefix, truncated sections) — the
  /// connection is reset and redialed, the retry protocol re-sends,
  /// and the reason lands in "exec.proc.frame_errors" + stderr.
  uint64_t frame_errors() const { return frame_errors_; }
  uint64_t frames_sent() const;
  uint64_t faults_injected() const;
  /// Merged daemon-reported meters as of the last quiescent Drain —
  /// what the daemons saw cross the wire, after dedup. net_test holds
  /// this byte-identical to the coordinator's logical traffic().
  net::DaemonStats MergedDaemonStats() const;

 private:
  struct PendingReq {
    net::Frame frame;   ///< as sent; retransmitted verbatim (same seq)
    Parcel parcel;      ///< original (keeps the local value for Plain)
    DeliverFn deliver;  ///< parcel requests
    std::function<void(const net::Frame&)> control;  ///< STATS/RESET
    uint32_t attempts = 1;
    double deadline = 0.0;    ///< mono time of the next retransmit
    double first_send = 0.0;  ///< mono, for RTT accounting
  };

  struct DaemonLink {
    int index = 0;
    std::unique_ptr<net::Conn> conn;
    std::string addr;      ///< connect mode target; empty = spawned
    pid_t pid = -1;
    uint64_t nonce = 0;    ///< last HELLO nonce; 0 = never connected
    bool hello = false;    ///< handshake complete on current conn
    uint64_t next_seq = 1;
    std::map<uint64_t, PendingReq> pending;
    double last_rx = 0.0;
    double last_ping = 0.0;
    double next_redial = 0.0;
    int consecutive_failures = 0;
    uint64_t parcels_since_stats = 0;
    /// Counters of predecessor connections (a respawned daemon's
    /// accepted socket replaces the Conn object).
    uint64_t prior_frames = 0;
    uint64_t prior_dropped = 0;
    uint64_t prior_delayed = 0;
    uint64_t prior_duplicated = 0;
  };

  struct Timer {
    double when = 0.0;
    uint64_t seq = 0;
    Task task;
    bool operator>(const Timer& other) const {
      return std::tie(when, seq) > std::tie(other.when, other.seq);
    }
  };

  explicit ProcessBackend(const Options& options);
  Status Start();
  void OnAddSites(int count) override;

  // Monotonic wall seconds (process-wide base); now() is mono() minus
  // the Reset epoch, while the net layer stays on mono so Reset never
  // shifts in-flight deadlines.
  static double mono();

  int daemon_of(SiteId site) const {
    return static_cast<int>(static_cast<size_t>(site) % links_.size());
  }
  /// The link a from->to parcel is routed through: the daemon hosting
  /// the non-coordinator endpoint (destination preferred); nullptr
  /// when both endpoints are coordinator-context (local hand-off).
  DaemonLink* route_of(SiteId from, SiteId to);
  /// Factory-domain key the daemon pins a shard factory under.
  uint32_t shard_key_of(SiteId to) const;

  Status SpawnDaemon(DaemonLink* link);
  void Redial(DaemonLink* link);
  void DeclareDead(DaemonLink* link, const char* why);
  void OnHello(DaemonLink* link, const net::Frame& frame);
  void OnFrame(DaemonLink* link, net::Frame frame);
  uint64_t EnqueueControl(DaemonLink* link, net::FrameType type,
                          std::function<void(const net::Frame&)> done);
  void RequestDaemonStats();

  /// One iteration of the event loop: retries, liveness, respawns,
  /// poll (up to `max_wait` seconds), socket I/O, frame dispatch.
  void Step(double max_wait);
  /// Drive the loop until `done()` or `timeout` seconds; the returned
  /// status reports a timeout or an accumulated fatal error.
  Status PumpUntil(const std::function<bool()>& done, double timeout);
  bool AllAcked() const;
  void RunReady();
  void Fatal(const std::string& why);

  Options options_;
  /// One coordinator-side shadow factory per daemon: the factory
  /// domain of that daemon's sites' execution contexts.
  std::vector<std::unique_ptr<bexpr::ExprFactory>> shard_factory_;

  std::vector<std::unique_ptr<DaemonLink>> links_;
  int listener_ = -1;
  std::string listen_addr_;
  /// Accepted but not yet HELLO-identified connections (spawn mode).
  std::vector<std::unique_ptr<net::Conn>> pending_accepts_;

  /// The single-threaded execution contexts: FIFO of runnable tasks
  /// (site deliveries, compute dones, completed-parcel deliveries).
  std::deque<Task> ready_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>>
      timers_;
  uint64_t next_timer_seq_ = 0;

  sim::TrafficStats traffic_;
  double busy_seconds_ = 0.0;
  uint64_t tasks_run_ = 0;
  double epoch_ = 0.0;  ///< mono() at construction / last Reset

  /// Per-daemon recovery epochs (RecoveryEpoch() fans them out to the
  /// daemon's sites): bumped when a HELLO announces a new boot nonce.
  std::vector<uint64_t> daemon_epoch_;

  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t frame_errors_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t acked_ = 0;
  uint64_t dup_acks_ = 0;
  uint64_t rtt_micros_ = 0;
  bool stats_dirty_ = false;
  std::vector<net::DaemonStats> daemon_stats_;
  Status fatal_ = Status::OK();

  static uint64_t next_listener_id_;
};

}  // namespace parbox::exec

#endif  // PARBOX_EXEC_PROCESS_BACKEND_H_

#include "exec/process_backend.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/socket.h"

extern char** environ;

namespace parbox::exec {

namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::atoi(v);
}

/// All coordinator-side frames draw from endpoint 0; daemons use
/// (index << 1) | 1 — the two directions of every link fault
/// independently from one seed.
constexpr uint64_t kCoordinatorEndpoint = 0;

}  // namespace

uint64_t ProcessBackend::next_listener_id_ = 0;

double ProcessBackend::mono() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcessBackend::Options ProcessBackend::Options::FromEnv() {
  Options options;
  options.fault_seed = net::FaultInjector::SeedFromEnv();
  options.request_timeout =
      EnvInt("PARBOX_NET_TIMEOUT_MS", 200) / 1000.0;
  if (options.request_timeout <= 0) options.request_timeout = 0.2;
  options.max_retries = std::max(1, EnvInt("PARBOX_NET_RETRIES", 5));
  options.heartbeat_interval =
      std::max(1, EnvInt("PARBOX_NET_HEARTBEAT_MS", 500)) / 1000.0;
  options.liveness_timeout = options.heartbeat_interval * 10.0;
  if (const char* dir = std::getenv("PARBOX_SITED_LOG_DIR");
      dir != nullptr && dir[0] != '\0') {
    options.log_dir = dir;
  }
  if (const char* addrs = std::getenv("PARBOX_SITED_ADDRS");
      addrs != nullptr && addrs[0] != '\0') {
    std::string_view rest = addrs;
    while (!rest.empty()) {
      const size_t comma = rest.find(',');
      std::string_view addr = rest.substr(0, comma);
      if (!addr.empty()) options.connect_addrs.emplace_back(addr);
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  if (const char* bin = std::getenv("PARBOX_SITED_BIN");
      bin != nullptr && bin[0] != '\0') {
    options.sited_bin = bin;
  } else {
    // Default: the `sited` binary alongside the running executable
    // (all build targets land in the build root).
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
      buf[n] = '\0';
      std::string path(buf);
      const size_t slash = path.rfind('/');
      if (slash != std::string::npos) {
        const std::string candidate = path.substr(0, slash) + "/sited";
        if (access(candidate.c_str(), X_OK) == 0) {
          options.sited_bin = candidate;
        }
      }
    }
  }
  return options;
}

ProcessBackend::ProcessBackend(const Options& options)
    : options_(options), epoch_(mono()) {}

ProcessBackend::~ProcessBackend() {
  for (auto& link : links_) {
    if (link->conn != nullptr) link->conn->Close();
    if (link->pid > 0) {
      kill(link->pid, SIGTERM);
      waitpid(link->pid, nullptr, 0);
      link->pid = -1;
    }
  }
  if (listener_ >= 0) net::CloseFd(listener_);
}

Result<std::unique_ptr<ExecBackend>> ProcessBackend::Make(
    const Options& options) {
  std::unique_ptr<ProcessBackend> backend(new ProcessBackend(options));
  PARBOX_RETURN_IF_ERROR(backend->Start());
  return std::unique_ptr<ExecBackend>(std::move(backend));
}

Status ProcessBackend::Start() {
  const net::FaultInjector injector(options_.fault_seed,
                                    kCoordinatorEndpoint);
  if (!options_.connect_addrs.empty()) {
    // Connect mode: standalone daemons the operator runs (`sited
    // --listen=...`); they must already be up.
    for (size_t i = 0; i < options_.connect_addrs.size(); ++i) {
      auto link = std::make_unique<DaemonLink>();
      link->index = static_cast<int>(i);
      link->addr = options_.connect_addrs[i];
      link->conn = std::make_unique<net::Conn>(injector);
      links_.push_back(std::move(link));
    }
  } else {
    if (options_.num_daemons < 1 || options_.num_daemons > 64) {
      return Status::InvalidArgument(
          "process backend needs 1..64 daemons");
    }
    if (options_.sited_bin.empty()) {
      return Status::FailedPrecondition(
          "backend \"proc\" needs the `sited` daemon binary: build the "
          "sited target (expected next to the running executable) or "
          "set PARBOX_SITED_BIN");
    }
    listen_addr_ =
        options_.tcp
            ? std::string("127.0.0.1:0")
            : "@parbox." + std::to_string(getpid()) + "." +
                  std::to_string(next_listener_id_++);
    PARBOX_ASSIGN_OR_RETURN(listener_, net::Listen(listen_addr_));
    PARBOX_ASSIGN_OR_RETURN(listen_addr_,
                            net::ListenAddress(listener_, listen_addr_));
    for (int d = 0; d < options_.num_daemons; ++d) {
      auto link = std::make_unique<DaemonLink>();
      link->index = d;
      links_.push_back(std::move(link));
      PARBOX_RETURN_IF_ERROR(SpawnDaemon(links_.back().get()));
    }
  }
  shard_factory_.clear();
  for (size_t d = 0; d < links_.size(); ++d) {
    shard_factory_.push_back(std::make_unique<bexpr::ExprFactory>());
  }
  daemon_epoch_.assign(links_.size(), 0);
  daemon_stats_.assign(links_.size(), net::DaemonStats{});
  for (auto& link : links_) {
    if (!link->addr.empty()) Redial(link.get());
  }
  Status up = PumpUntil(
      [this] {
        for (const auto& link : links_) {
          if (!link->hello) return false;
        }
        return true;
      },
      10.0);
  if (!up.ok()) {
    return Status::FailedPrecondition(
        "backend \"proc\": site daemons failed to come up: " +
        up.ToString());
  }
  return Status::OK();
}

Status ProcessBackend::SpawnDaemon(DaemonLink* link) {
  static uint64_t spawn_counter = 0;
  std::vector<std::string> args;
  args.push_back(options_.sited_bin);
  args.push_back("--connect=" + listen_addr_);
  args.push_back("--index=" + std::to_string(link->index));
  if (!options_.log_dir.empty()) {
    args.push_back("--log=" + options_.log_dir + "/sited-" +
                   std::to_string(link->index) + "-" +
                   std::to_string(spawn_counter++) + ".log");
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, options_.sited_bin.c_str(), nullptr,
                             nullptr, argv.data(), environ);
  if (rc != 0) {
    return Status::Internal("posix_spawn " + options_.sited_bin + ": " +
                            std::strerror(rc));
  }
  link->pid = pid;
  link->hello = false;
  link->last_rx = mono();
  return Status::OK();
}

void ProcessBackend::Redial(DaemonLink* link) {
  auto fd = net::Connect(link->addr, 0.25);
  if (fd.ok()) {
    link->conn->Adopt(*fd);
    link->last_rx = mono();
    // hello arrives from the daemon; until then the link is not live.
  } else {
    ++link->consecutive_failures;
    link->next_redial =
        mono() + 0.05 * static_cast<double>(
                            1u << std::min(link->consecutive_failures, 5));
  }
}

void ProcessBackend::Fatal(const std::string& why) {
  if (fatal_.ok()) fatal_ = Status::Internal("process backend: " + why);
}

void ProcessBackend::DeclareDead(DaemonLink* link, const char* why) {
  if (link->conn != nullptr && link->conn->connected()) {
    link->prior_frames += link->conn->frames_sent();
    link->prior_dropped += link->conn->faults_dropped();
    link->prior_delayed += link->conn->faults_delayed();
    link->prior_duplicated += link->conn->faults_duplicated();
    link->conn->Close();
  }
  link->hello = false;
  if (!link->addr.empty()) {
    // Connect mode: redial forever with bounded backoff — a
    // standalone daemon may come back whenever its operator restarts
    // it, and our pending requests wait for it.
    ++link->consecutive_failures;
    link->next_redial =
        mono() + 0.05 * static_cast<double>(
                            1u << std::min(link->consecutive_failures, 5));
    return;
  }
  ++link->consecutive_failures;
  if (link->consecutive_failures > options_.max_respawns) {
    Fatal("daemon " + std::to_string(link->index) + " unreachable after " +
          std::to_string(options_.max_respawns) + " respawns (" + why +
          ")");
    return;
  }
  if (link->pid > 0) {
    kill(link->pid, SIGKILL);
    waitpid(link->pid, nullptr, 0);
    link->pid = -1;
  }
  if (Status s = SpawnDaemon(link); !s.ok()) Fatal(s.ToString());
}

void ProcessBackend::OnHello(DaemonLink* link, const net::Frame& frame) {
  link->hello = true;
  link->consecutive_failures = 0;
  link->last_rx = mono();
  const uint64_t nonce = frame.seq;
  if (link->nonce != 0) {
    ++reconnects_;
    if (nonce != link->nonce) {
      // A different process answered: the daemon's in-memory site
      // state (pinned factories, shipped fragments) is gone. Surface
      // it through RecoveryEpoch so sessions re-ship.
      ++daemon_epoch_[static_cast<size_t>(link->index)];
    }
  }
  link->nonce = nonce;
  // Retransmit everything in flight: at-least-once + daemon dedup
  // makes blind retransmission safe, and a restarted daemon needs the
  // frames its predecessor lost.
  const double t = mono();
  for (auto& [seq, req] : link->pending) {
    req.attempts = 1;
    req.deadline = t + options_.request_timeout;
    link->conn->SendFrame(req.frame, 1,
                          /*faultable=*/req.deliver != nullptr, t);
  }
}

void ProcessBackend::OnFrame(DaemonLink* link, net::Frame frame) {
  link->last_rx = mono();
  switch (static_cast<net::FrameType>(frame.type)) {
    case net::FrameType::kHello:
      OnHello(link, frame);
      return;
    case net::FrameType::kPong:
      return;
    case net::FrameType::kParcelResp:
    case net::FrameType::kStatsResp:
    case net::FrameType::kResetResp: {
      auto it = link->pending.find(frame.seq);
      if (it == link->pending.end()) {
        ++dup_acks_;  // late duplicate of an already-completed request
        return;
      }
      PendingReq req = std::move(it->second);
      link->pending.erase(it);
      ++acked_;
      rtt_micros_ +=
          static_cast<uint64_t>((mono() - req.first_send) * 1e6);
      if (req.control != nullptr) {
        req.control(frame);
        return;
      }
      Parcel delivered;
      if ((frame.flags & net::kFrameFlagHasPayload) != 0) {
        // The content crossed the socket twice; rebuild the parcel
        // from the echoed bytes — the receiver decodes them into its
        // own factory, exactly as with any cross-factory delivery.
        delivered =
            Parcel::FromWire(std::move(frame.payload), frame.wire_bytes);
      } else {
        delivered = std::move(req.parcel);
      }
      delivered.set_trace(frame.trace_id, frame.trace_span);
      ready_.push_back([deliver = std::move(req.deliver),
                        parcel = std::move(delivered)]() mutable {
        deliver(std::move(parcel));
      });
      return;
    }
    default:
      return;  // unknown frame types are ignored (forward compat)
  }
}

ProcessBackend::DaemonLink* ProcessBackend::route_of(SiteId from,
                                                     SiteId to) {
  if (!is_coordinator_site(to)) return links_[daemon_of(to)].get();
  if (!is_coordinator_site(from)) return links_[daemon_of(from)].get();
  return nullptr;
}

uint32_t ProcessBackend::shard_key_of(SiteId to) const {
  // Coordinator sites' formulas belong to their session's factory
  // domain (one per hosted namespace); worker sites share their
  // daemon's shadow domain. The daemon pins one factory per key.
  if (is_coordinator_site(to)) return static_cast<uint32_t>(to);
  return 0x80000000u | static_cast<uint32_t>(daemon_of(to));
}

bexpr::ExprFactory& ProcessBackend::site_factory(SiteId site) {
  if (is_coordinator_site(site)) return namespace_factory(site);
  return *shard_factory_[static_cast<size_t>(daemon_of(site))];
}

void ProcessBackend::Compute(SiteId site, uint64_t, Task done) {
  // Sites' serial queues collapse onto one FIFO (single-threaded
  // coordinator loop): global FIFO order implies per-site FIFO order.
  (void)site;
  ready_.push_back(std::move(done));
}

void ProcessBackend::Send(SiteId from, SiteId to, Parcel parcel,
                          std::string_view tag, DeliverFn deliver) {
  if (from != to) {
    // Logical metering, identical to every backend: the parcel's wire
    // size once per Send. Transport framing/retries are separate
    // (AddBackendStats) so traffic stays bit-identical to the sim.
    traffic_.Record(from, to, parcel.wire_bytes(), tag);
  }
  if (parcel.needs_encoding() && &site_factory(from) != &site_factory(to)) {
    parcel.Encode();
  }
  DaemonLink* link = from == to ? nullptr : route_of(from, to);
  if (link == nullptr) {
    ready_.push_back([deliver = std::move(deliver),
                      parcel = std::move(parcel)]() mutable {
      deliver(std::move(parcel));
    });
    return;
  }
  PendingReq req;
  net::Frame& frame = req.frame;
  frame.type = static_cast<uint8_t>(net::FrameType::kParcelReq);
  frame.seq = link->next_seq++;
  frame.src = static_cast<uint32_t>(from);
  frame.dest = static_cast<uint32_t>(to);
  frame.shard_base = shard_key_of(to);
  frame.wire_bytes = parcel.wire_bytes();
  frame.trace_id = parcel.trace_id();
  frame.trace_span = parcel.trace_span();
  frame.tag = std::string(tag);
  if (parcel.has_wire()) {
    frame.flags = net::kFrameFlagHasPayload | net::kFrameFlagCoded;
    frame.payload = parcel.wire();
  }
  req.parcel = std::move(parcel);
  req.deliver = std::move(deliver);
  const double t = mono();
  req.first_send = t;
  req.deadline = t + options_.request_timeout;
  auto [it, inserted] = link->pending.emplace(frame.seq, std::move(req));
  assert(inserted);
  ++link->parcels_since_stats;
  stats_dirty_ = true;
  if (link->conn != nullptr && link->conn->connected() && link->hello) {
    link->conn->SendFrame(it->second.frame, 1, /*faultable=*/true, t);
  }
}

void ProcessBackend::OnAddSites(int) {
  assert(AllAcked() && ready_.empty() && "AddNamespace requires quiescence");
}

void ProcessBackend::ScheduleAt(double when, Task task) {
  timers_.push(Timer{when, next_timer_seq_++, std::move(task)});
}

double ProcessBackend::now() const { return mono() - epoch_; }

bool ProcessBackend::AllAcked() const {
  for (const auto& link : links_) {
    if (!link->pending.empty()) return false;
  }
  return true;
}

void ProcessBackend::RunReady() {
  while (!ready_.empty()) {
    Task task = std::move(ready_.front());
    ready_.pop_front();
    const double start = mono();
    task();
    busy_seconds_ += mono() - start;
    ++tasks_run_;
  }
}

void ProcessBackend::RequestDaemonStats() {
  stats_dirty_ = false;
  for (auto& link : links_) {
    if (link->parcels_since_stats == 0) continue;
    link->parcels_since_stats = 0;
    const int index = link->index;
    EnqueueControl(link.get(), net::FrameType::kStatsReq,
                   [this, index](const net::Frame& frame) {
                     net::DaemonStats stats;
                     if (stats.Decode(frame.payload)) {
                       daemon_stats_[static_cast<size_t>(index)] =
                           std::move(stats);
                     }
                   });
  }
}

uint64_t ProcessBackend::EnqueueControl(
    DaemonLink* link, net::FrameType type,
    std::function<void(const net::Frame&)> done) {
  PendingReq req;
  req.frame.type = static_cast<uint8_t>(type);
  req.frame.seq = link->next_seq++;
  req.control = std::move(done);
  const double t = mono();
  req.first_send = t;
  req.deadline = t + options_.request_timeout;
  const uint64_t seq = req.frame.seq;
  auto [it, inserted] = link->pending.emplace(seq, std::move(req));
  assert(inserted);
  if (link->conn != nullptr && link->conn->connected() && link->hello) {
    link->conn->SendFrame(it->second.frame, 1, /*faultable=*/false, t);
  }
  return seq;
}

void ProcessBackend::Step(double max_wait) {
  const double t = mono();
  double next_due = t + std::max(0.0, max_wait);

  for (auto& link : links_) {
    net::Conn* conn = link->conn.get();
    const bool live =
        conn != nullptr && conn->connected() && link->hello;
    if (conn != nullptr && conn->connected() && conn->has_delayed()) {
      next_due = std::min(next_due, conn->PumpDelayed(t));
    }
    if (live) {
      bool died = false;
      for (auto& [seq, req] : link->pending) {
        if (req.deadline <= t) {
          if (req.attempts > static_cast<uint32_t>(options_.max_retries)) {
            ++timeouts_;
            DeclareDead(link.get(), "request retries exhausted");
            died = true;
            break;
          }
          ++req.attempts;
          ++retries_;
          req.deadline =
              t + options_.request_timeout *
                      static_cast<double>(1u << std::min(req.attempts, 6u));
          conn->SendFrame(req.frame, req.attempts,
                          /*faultable=*/req.deliver != nullptr, t);
        }
        next_due = std::min(next_due, req.deadline);
      }
      if (!died && !link->pending.empty()) {
        if (t - link->last_rx > options_.heartbeat_interval &&
            t - link->last_ping > options_.heartbeat_interval) {
          net::Frame ping;
          ping.type = static_cast<uint8_t>(net::FrameType::kPing);
          ping.seq = link->next_seq++;
          conn->SendFrame(ping, 1, /*faultable=*/false, t);
          link->last_ping = t;
        }
        if (t - link->last_rx > options_.liveness_timeout) {
          DeclareDead(link.get(), "liveness timeout");
        }
      }
    } else if (!link->addr.empty() &&
               (conn == nullptr || !conn->connected())) {
      if (t >= link->next_redial) Redial(link.get());
      next_due = std::min(next_due, link->next_redial);
    }
  }

  // ---- poll ----
  struct FdRef {
    int what;  // 0 = listener, 1 = pending accept, 2 = link
    size_t index;
  };
  std::vector<pollfd> fds;
  std::vector<FdRef> refs;
  if (listener_ >= 0) {
    fds.push_back(pollfd{listener_, POLLIN, 0});
    refs.push_back(FdRef{0, 0});
  }
  for (size_t i = 0; i < pending_accepts_.size(); ++i) {
    fds.push_back(pollfd{pending_accepts_[i]->fd(), POLLIN, 0});
    refs.push_back(FdRef{1, i});
  }
  for (size_t i = 0; i < links_.size(); ++i) {
    net::Conn* conn = links_[i]->conn.get();
    if (conn == nullptr || !conn->connected()) continue;
    short events = POLLIN;
    if (conn->wants_write()) events |= POLLOUT;
    fds.push_back(pollfd{conn->fd(), events, 0});
    refs.push_back(FdRef{2, i});
  }
  int timeout_ms =
      static_cast<int>(std::max(0.0, (next_due - mono()) * 1000.0));
  timeout_ms = std::min(timeout_ms, 1000);
  if (fds.empty()) {
    if (timeout_ms > 0) usleep(static_cast<useconds_t>(timeout_ms) * 1000);
    return;
  }
  const int n = poll(fds.data(), static_cast<nfds_t>(fds.size()),
                     timeout_ms);
  if (n < 0) return;

  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    const FdRef ref = refs[i];
    if (ref.what == 0) {
      for (;;) {
        auto fd = net::Accept(listener_);
        if (!fd.ok() || *fd < 0) break;
        auto conn = std::make_unique<net::Conn>(net::FaultInjector(
            options_.fault_seed, kCoordinatorEndpoint));
        conn->Adopt(*fd);
        pending_accepts_.push_back(std::move(conn));
      }
    } else if (ref.what == 1) {
      net::Conn* conn = pending_accepts_[ref.index].get();
      if (!conn->ReadReady()) {
        conn->Close();
        continue;
      }
      net::Frame frame;
      while (conn->connected() && conn->NextFrame(&frame)) {
        if (static_cast<net::FrameType>(frame.type) ==
                net::FrameType::kHello &&
            frame.src < links_.size()) {
          DaemonLink* link = links_[frame.src].get();
          if (link->conn != nullptr) {
            link->prior_frames += link->conn->frames_sent();
            link->prior_dropped += link->conn->faults_dropped();
            link->prior_delayed += link->conn->faults_delayed();
            link->prior_duplicated += link->conn->faults_duplicated();
          }
          link->conn = std::move(pending_accepts_[ref.index]);
          OnHello(link, frame);
          // Anything buffered behind the HELLO dispatches normally.
          net::Frame more;
          while (link->conn->NextFrame(&more)) {
            OnFrame(link, std::move(more));
          }
          break;
        }
      }
    } else {
      DaemonLink* link = links_[ref.index].get();
      net::Conn* conn = link->conn.get();
      if (conn == nullptr || !conn->connected()) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!conn->ReadReady()) {
          // Distinguish a malformed stream (corrupt/oversize length
          // prefix) from a plain close: the former is surfaced as a
          // frame error — the link resets and redials, the retry
          // protocol re-sends, and the answer path never sees it.
          if (!conn->read_error_reason().empty()) {
            ++frame_errors_;
            std::fprintf(stderr,
                         "parbox: daemon %d link: malformed frame (%s); "
                         "resetting connection\n",
                         link->index, conn->read_error_reason().c_str());
            DeclareDead(link, "malformed frame");
          } else {
            DeclareDead(link, "connection closed");
          }
          continue;
        }
        net::Frame frame;
        while (link->conn != nullptr && link->conn->connected() &&
               link->conn->NextFrame(&frame)) {
          OnFrame(link, std::move(frame));
        }
      }
      if (link->conn != nullptr && link->conn->connected() &&
          !link->conn->FlushWrites()) {
        DeclareDead(link, "write failed");
      }
    }
  }
  // Drop closed pending accepts.
  for (size_t i = 0; i < pending_accepts_.size();) {
    if (pending_accepts_[i] == nullptr ||
        !pending_accepts_[i]->connected()) {
      pending_accepts_.erase(pending_accepts_.begin() +
                             static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

Status ProcessBackend::PumpUntil(const std::function<bool()>& done,
                                 double timeout) {
  const double deadline = mono() + timeout;
  while (!done()) {
    if (!fatal_.ok()) return fatal_;
    if (mono() >= deadline) {
      return Status::Internal("process backend: timed out after " +
                              std::to_string(timeout) + "s");
    }
    Step(0.05);
  }
  return Status::OK();
}

double ProcessBackend::Drain() {
  for (;;) {
    bool progressed = false;
    if (!ready_.empty()) {
      RunReady();
      progressed = true;
    }
    while (!timers_.empty() && timers_.top().when <= now()) {
      Task task = std::move(const_cast<Timer&>(timers_.top()).task);
      timers_.pop();
      const double start = mono();
      task();
      busy_seconds_ += mono() - start;
      ++tasks_run_;
      progressed = true;
    }
    if (progressed) continue;
    if (!fatal_.ok()) {
      std::fprintf(stderr, "parbox: %s\n", fatal_.ToString().c_str());
      std::abort();  // the contract has no failure path for Drain
    }
    if (AllAcked()) {
      if (!timers_.empty()) {
        Step(std::max(0.0, timers_.top().when - now()));
        continue;
      }
      if (stats_dirty_) {
        // Quiescent: collect the daemons' own meters so post-run
        // reads (MergedDaemonStats, AddBackendStats) are stable.
        RequestDaemonStats();
        continue;
      }
      break;
    }
    double wait = 0.05;
    if (!timers_.empty()) {
      wait = std::min(wait, std::max(0.0, timers_.top().when - now()));
    }
    Step(wait);
  }
  return now();
}

void ProcessBackend::Reset() {
  assert(AllAcked() && ready_.empty() &&
         "Reset requires quiescence (call after Drain)");
  assert(timers_.empty() && "Reset with timers pending");
  traffic_.Reset();
  ResetVisits();
  busy_seconds_ = 0.0;
  tasks_run_ = 0;
  next_timer_seq_ = 0;
  // Rewind the daemons' meters too (their shard factories persist,
  // mirroring the "interned site-factory formulas persist" contract).
  for (auto& link : links_) {
    EnqueueControl(link.get(), net::FrameType::kResetReq,
                   [](const net::Frame&) {});
  }
  if (Status s = PumpUntil([this] { return AllAcked(); }, 30.0);
      !s.ok()) {
    Fatal("daemon meter reset failed: " + s.ToString());
  }
  for (auto& stats : daemon_stats_) stats = net::DaemonStats{};
  stats_dirty_ = false;
  epoch_ = mono();
}

uint64_t ProcessBackend::RecoveryEpoch(SiteId site) const {
  if (site < 0 || links_.empty() || is_coordinator_site(site)) return 0;
  return daemon_epoch_[static_cast<size_t>(daemon_of(site))];
}

pid_t ProcessBackend::daemon_pid(int index) const {
  if (index < 0 || static_cast<size_t>(index) >= links_.size()) return -1;
  return links_[static_cast<size_t>(index)]->pid;
}

uint64_t ProcessBackend::frames_sent() const {
  uint64_t total = 0;
  for (const auto& link : links_) {
    total += link->prior_frames;
    if (link->conn != nullptr) total += link->conn->frames_sent();
  }
  return total;
}

uint64_t ProcessBackend::faults_injected() const {
  uint64_t total = 0;
  for (const auto& link : links_) {
    total += link->prior_dropped + link->prior_delayed +
             link->prior_duplicated;
    if (link->conn != nullptr) {
      total += link->conn->faults_dropped() +
               link->conn->faults_delayed() +
               link->conn->faults_duplicated();
    }
  }
  return total;
}

net::DaemonStats ProcessBackend::MergedDaemonStats() const {
  net::DaemonStats merged;
  for (const auto& stats : daemon_stats_) merged.MergeFrom(stats);
  return merged;
}

void ProcessBackend::AddBackendStats(obs::MetricsSnapshot* stats) const {
  std::map<std::string, uint64_t>& c = stats->counters;
  c["exec.tasks"] += tasks_run_;
  c["exec.proc.daemons"] += links_.size();
  c["exec.proc.frames"] += frames_sent();
  c["exec.proc.acked"] += acked_;
  c["exec.proc.retries"] += retries_;
  c["exec.proc.reconnects"] += reconnects_;
  c["exec.proc.frame_errors"] += frame_errors_;
  c["exec.proc.dup_acks"] += dup_acks_;
  c["exec.proc.rtt_micros"] += rtt_micros_;
  c["exec.proc.faults"] += faults_injected();
  const net::DaemonStats merged = MergedDaemonStats();
  c["exec.proc.daemon.parcels"] += merged.parcels;
  c["exec.proc.daemon.dedup_hits"] += merged.dedup_hits;
  c["exec.proc.daemon.decoded"] += merged.decoded_payloads;
  c["exec.proc.daemon.decode_errors"] += merged.decode_errors;
}

namespace {

Result<std::unique_ptr<ExecBackend>> MakeProcessBackend(
    const sim::NetworkParams&, std::string_view arg) {
  ProcessBackend::Options options = ProcessBackend::Options::FromEnv();
  // Spec grammar: proc | proc:N | proc:N,tcp | proc:tcp
  std::string_view rest = arg;
  bool bad = false;
  if (!rest.empty()) {
    const size_t comma = rest.find(',');
    std::string_view head = rest.substr(0, comma);
    std::string_view tail =
        comma == std::string_view::npos ? std::string_view{}
                                        : rest.substr(comma + 1);
    if (head == "tcp" && tail.empty()) {
      options.tcp = true;
    } else {
      int parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(head.data(), head.data() + head.size(), parsed);
      if (ec != std::errc() || ptr != head.data() + head.size() ||
          parsed < 1 || parsed > 64) {
        bad = true;
      } else {
        options.num_daemons = parsed;
      }
      if (!tail.empty() && tail != "tcp") bad = true;
      if (tail == "tcp") options.tcp = true;
    }
  }
  if (bad) {
    return Status::InvalidArgument(
        "backend \"proc\" takes a site-daemon count 1..64 with an "
        "optional \",tcp\" transport suffix — proc[:N[,tcp]] (got \"" +
        std::string(arg) + "\")");
  }
  return ProcessBackend::Make(options);
}

}  // namespace

PARBOX_REGISTER_EXEC_BACKEND(2, "proc", "proc[:N[,tcp]]", MakeProcessBackend);

}  // namespace parbox::exec

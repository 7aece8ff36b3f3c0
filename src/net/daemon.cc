#include "net/daemon.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "boolexpr/expr.h"
#include "exec/codec.h"
#include "net/conn.h"
#include "net/socket.h"
#include "net/wire.h"

namespace parbox::net {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Log(std::FILE* log, const char* fmt, ...) {
  if (log == nullptr) return;
  va_list args;
  va_start(args, fmt);
  std::fprintf(log, "[sited %.3f] ", Now());
  std::vfprintf(log, fmt, args);
  std::fprintf(log, "\n");
  std::fflush(log);
  va_end(args);
}

/// Per-connection at-least-once receive window: seqs <= floor are all
/// processed; the sparse set holds processed seqs above it. Seqs are
/// assigned monotonically by the sender, so the floor advances and the
/// set stays tiny (out-of-order arrivals are only injector delays).
class SeqDedup {
 public:
  /// True iff `seq` is new (and records it).
  bool CheckAndRecord(uint64_t seq) {
    if (seq <= floor_ || above_.count(seq) != 0) return false;
    above_.insert(seq);
    while (above_.count(floor_ + 1) != 0) {
      above_.erase(floor_ + 1);
      ++floor_;
    }
    return true;
  }

 private:
  uint64_t floor_ = 0;
  std::set<uint64_t> above_;
};

/// One daemon's whole in-memory site state: pinned per-shard
/// factories plus the meters STATS_RESP reports. Lives for the
/// process — a restart loses it, which the boot nonce announces.
struct SiteState {
  /// Factory-domain id (the coordinator's shard key) -> the pinned
  /// hash-consing factory the shipped formulas are interned into.
  std::map<uint32_t, std::unique_ptr<bexpr::ExprFactory>> shards;
  DaemonStats stats;
  std::map<std::string, std::pair<uint64_t, uint64_t>> tag_counts;
  std::map<uint32_t, uint64_t> bytes_into;

  bexpr::ExprFactory* shard(uint32_t base) {
    auto& slot = shards[base];
    if (slot == nullptr) slot = std::make_unique<bexpr::ExprFactory>();
    return slot.get();
  }

  std::string EncodeStats() const {
    DaemonStats out = stats;
    out.tag_counts.assign(tag_counts.begin(), tag_counts.end());
    out.bytes_into.assign(bytes_into.begin(), bytes_into.end());
    return out.Encode();
  }

  void ResetMeters() {
    stats = DaemonStats{};
    tag_counts.clear();
    bytes_into.clear();
    // Shard factories persist, mirroring ExecBackend::Reset's
    // "interned site-factory formulas persist" contract.
  }
};

/// Handle one inbound frame; queues any response on `conn`. Returns
/// false when the frame type is unknown (connection poisoned).
bool HandleFrame(const Frame& frame, SiteState* state, SeqDedup* dedup,
                 Conn* conn, std::FILE* log) {
  state->stats.frames_received++;
  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::kParcelReq: {
      const bool fresh = dedup->CheckAndRecord(frame.seq);
      if (fresh) {
        state->stats.parcels++;
        auto& counts = state->tag_counts[frame.tag];
        counts.first += frame.wire_bytes;
        counts.second += 1;
        state->bytes_into[frame.dest] += frame.wire_bytes;
        if ((frame.flags & kFrameFlagCoded) != 0 &&
            (frame.flags & kFrameFlagHasPayload) != 0) {
          // Decoded into the shard factory; a payload that does not
          // decode is counted (the coordinator still gets the echo, and
          // the real receiver surfaces any corruption).
          if (exec::DecodeTripletBatch(frame.payload,
                                       state->shard(frame.shard_base))
                  .ok()) {
            state->stats.decoded_payloads++;
          } else {
            state->stats.decode_errors++;
            Log(log, "decode error: seq=%" PRIu64 " tag=%s payload=%zu",
                frame.seq, frame.tag.c_str(), frame.payload.size());
          }
        }
      } else {
        state->stats.dedup_hits++;
      }
      Frame resp = frame;
      resp.type = static_cast<uint8_t>(FrameType::kParcelResp);
      // A re-requested ack always flies (attempt escalation): the
      // coordinator's bounded retry budget converges under any seed.
      conn->SendFrame(resp, fresh ? 1 : kAlwaysDeliverAttempt,
                      /*faultable=*/true, Now());
      return true;
    }
    case FrameType::kPing: {
      Frame pong;
      pong.type = static_cast<uint8_t>(FrameType::kPong);
      pong.seq = frame.seq;
      conn->SendFrame(pong, 1, /*faultable=*/false, Now());
      return true;
    }
    case FrameType::kStatsReq: {
      Frame resp;
      resp.type = static_cast<uint8_t>(FrameType::kStatsResp);
      resp.seq = frame.seq;
      resp.flags = kFrameFlagHasPayload;
      resp.payload = state->EncodeStats();
      conn->SendFrame(resp, 1, /*faultable=*/false, Now());
      return true;
    }
    case FrameType::kResetReq: {
      state->ResetMeters();
      Frame resp;
      resp.type = static_cast<uint8_t>(FrameType::kResetResp);
      resp.seq = frame.seq;
      conn->SendFrame(resp, 1, /*faultable=*/false, Now());
      return true;
    }
    default:
      Log(log, "unknown frame type %u seq=%" PRIu64,
          static_cast<unsigned>(frame.type), frame.seq);
      return false;
  }
}

/// Serve one established connection until EOF/error. Returns true on
/// orderly EOF.
bool ServeConnection(Conn* conn, SiteState* state, std::FILE* log) {
  SeqDedup dedup;
  for (;;) {
    pollfd pfd{conn->fd(), POLLIN, 0};
    if (conn->wants_write()) pfd.events |= POLLOUT;
    int timeout_ms = -1;
    if (conn->has_delayed()) {
      const double due = conn->PumpDelayed(Now());
      if (due < std::numeric_limits<double>::infinity()) {
        timeout_ms = std::max(1, static_cast<int>((due - Now()) * 1000));
      }
    }
    const int n = poll(&pfd, 1, timeout_ms);
    conn->PumpDelayed(Now());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      if (!conn->ReadReady()) {
        if (!conn->read_error_reason().empty()) {
          Log(log, "malformed frame from coordinator (%s); dropping "
                   "connection",
              conn->read_error_reason().c_str());
        } else {
          Log(log, "coordinator disconnected");
        }
        return true;
      }
      Frame frame;
      while (conn->NextFrame(&frame)) {
        if (!HandleFrame(frame, state, &dedup, conn, log)) return false;
      }
    }
    if (!conn->FlushWrites()) {
      Log(log, "write failed; dropping connection");
      return true;
    }
  }
}

uint64_t BootNonce() {
  const uint64_t t = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  uint64_t x = t ^ (static_cast<uint64_t>(getpid()) << 32);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  if (x == 0) x = 1;  // nonce 0 means "never seen"
  return x;
}

void SendHello(Conn* conn, int index, uint64_t nonce) {
  Frame hello;
  hello.type = static_cast<uint8_t>(FrameType::kHello);
  hello.seq = nonce;
  hello.src = static_cast<uint32_t>(index);
  conn->SendFrame(hello, 1, /*faultable=*/false, Now());
}

}  // namespace

int RunSiteDaemon(const DaemonOptions& options) {
  SiteState state;
  const uint64_t nonce = BootNonce();
  // Direction bit 1 = daemon->coordinator, so the two ends of a link
  // draw independent fault streams from one seed.
  const FaultInjector injector(
      options.fault_seed,
      (static_cast<uint64_t>(options.index) << 1) | 1u);

  if (!options.connect_addr.empty()) {
    // Connect mode: the coordinator just spawned us; it may still be
    // setting up, so dial with retries before giving up.
    int fd = -1;
    const double deadline = Now() + 10.0;
    for (;;) {
      auto connected = Connect(options.connect_addr, 1.0);
      if (connected.ok()) {
        fd = *connected;
        break;
      }
      if (Now() >= deadline) {
        Log(options.log, "connect %s failed: %s",
            options.connect_addr.c_str(),
            connected.status().ToString().c_str());
        return 1;
      }
      usleep(20 * 1000);
    }
    Conn conn(injector);
    conn.Adopt(fd);
    SendHello(&conn, options.index, nonce);
    Log(options.log, "daemon %d up (pid %d, nonce %" PRIx64 ") -> %s",
        options.index, getpid(), nonce, options.connect_addr.c_str());
    return ServeConnection(&conn, &state, options.log) ? 0 : 1;
  }

  // Listen mode: accept coordinators one at a time, forever.
  auto listener = Listen(options.listen_addr);
  if (!listener.ok()) {
    Log(options.log, "listen %s failed: %s", options.listen_addr.c_str(),
        listener.status().ToString().c_str());
    return 1;
  }
  Log(options.log, "daemon %d listening on %s (pid %d, nonce %" PRIx64 ")",
      options.index, options.listen_addr.c_str(), getpid(), nonce);
  for (;;) {
    pollfd pfd{*listener, POLLIN, 0};
    if (poll(&pfd, 1, -1) < 0 && errno != EINTR) return 1;
    auto accepted = Accept(*listener);
    if (!accepted.ok()) return 1;
    if (*accepted < 0) continue;
    Conn conn(injector);
    conn.Adopt(*accepted);
    SendHello(&conn, options.index, nonce);
    Log(options.log, "coordinator connected");
    if (!ServeConnection(&conn, &state, options.log)) return 1;
  }
}

}  // namespace parbox::net

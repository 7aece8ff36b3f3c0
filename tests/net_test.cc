// The net/ subsystem and the process backend built on it: frame codec
// round trips, incremental/partial frame reading, the daemon-stats
// blob, deterministic fault injection, and ProcessBackend end-to-end —
// held to the sim oracle bit-for-bit, with faults on and off, over
// Unix-domain and TCP transports, and across a daemon kill/restart
// (where only the dead daemon's sites re-ship their fragments).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/session.h"
#include "exec/backend.h"
#include "exec/process_backend.h"
#include "net/conn.h"
#include "net/faults.h"
#include "net/wire.h"
#include "obs/trace_backend.h"
#include "testutil.h"
#include "xpath/normalize.h"

namespace parbox {
namespace {

using core::RunReport;
using core::Session;
using core::SessionOptions;
using frag::FragmentSet;

// ---- Frame codec -------------------------------------------------------

net::Frame SampleFrame() {
  net::Frame f;
  f.type = static_cast<uint8_t>(net::FrameType::kParcelReq);
  f.seq = 0x0123456789abcdefull;
  f.src = 7;
  f.dest = 3;
  f.shard_base = 0x80000001u;
  f.wire_bytes = 4242;
  f.trace_id = 0xfeedfacecafebeefull;
  f.trace_span = 0x1122334455667788ull;
  f.flags = net::kFrameFlagHasPayload | net::kFrameFlagCoded;
  f.tag = "triplet";
  f.payload = std::string("\x00\x01payload\xff bytes", 16);
  return f;
}

void ExpectFramesEqual(const net::Frame& a, const net::Frame& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dest, b.dest);
  EXPECT_EQ(a.shard_base, b.shard_base);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.trace_span, b.trace_span);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(WireTest, FrameRoundTrips) {
  const net::Frame f = SampleFrame();
  const std::string bytes = net::EncodeFrame(f);
  net::FrameReader reader;
  reader.Feed(bytes.data(), bytes.size());
  net::Frame out;
  ASSERT_TRUE(reader.Next(&out));
  ExpectFramesEqual(f, out);
  EXPECT_FALSE(reader.Next(&out));
  EXPECT_FALSE(reader.error());
}

TEST(WireTest, FrameReaderHandlesPartialAndBackToBackFrames) {
  net::Frame a = SampleFrame();
  net::Frame b;
  b.type = static_cast<uint8_t>(net::FrameType::kPong);
  b.seq = 9;
  std::string stream = net::EncodeFrame(a) + net::EncodeFrame(b);

  // Byte-at-a-time feeding must produce exactly the two frames.
  net::FrameReader reader;
  std::vector<net::Frame> got;
  for (char c : stream) {
    reader.Feed(&c, 1);
    net::Frame out;
    while (reader.Next(&out)) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 2u);
  ExpectFramesEqual(a, got[0]);
  ExpectFramesEqual(b, got[1]);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, FrameReaderRejectsOversizedAndTruncatedFrames) {
  // A length prefix beyond kMaxFrameBody poisons the reader.
  std::string bogus;
  PutU32(&bogus, net::kMaxFrameBody + 1);
  bogus += "xxxx";
  net::FrameReader reader;
  reader.Feed(bogus.data(), bogus.size());
  net::Frame out;
  EXPECT_FALSE(reader.Next(&out));
  EXPECT_TRUE(reader.error());

  // A frame whose body is shorter than the fixed header also poisons.
  std::string tiny;
  PutU32(&tiny, 4);
  tiny += "abcd";
  net::FrameReader reader2;
  reader2.Feed(tiny.data(), tiny.size());
  EXPECT_FALSE(reader2.Next(&out));
  EXPECT_TRUE(reader2.error());
}

// A crafted oversize u32 length prefix must not poison silently: the
// reader latches a diagnostic naming the cap, releases every buffered
// byte (it must not hold memory toward an impossible frame), and
// stays latched until the connection owner re-dials with a fresh
// reader — which is how ProcessBackend surfaces it (frame_errors
// counter + link reset) instead of hanging or crashing.
TEST(WireTest, OversizedHeaderSurfacesReasonWithoutBuffering) {
  std::string bogus;
  PutU32(&bogus, net::kMaxFrameBody + 1);
  bogus.append(1024, 'x');
  net::FrameReader reader;
  reader.Feed(bogus.data(), bogus.size());
  net::Frame out;
  EXPECT_FALSE(reader.Next(&out));
  ASSERT_TRUE(reader.error());
  EXPECT_NE(reader.error_reason().find("cap"), std::string::npos)
      << reader.error_reason();
  EXPECT_EQ(reader.buffered(), 0u);

  // A valid frame fed afterwards does not revive the stream: recovery
  // is per-connection, not per-frame.
  const std::string good = net::EncodeFrame(SampleFrame());
  reader.Feed(good.data(), good.size());
  EXPECT_FALSE(reader.Next(&out));
  EXPECT_TRUE(reader.error());
}

// The encode side refuses to create such a frame in the first place:
// a body past kMaxFrameBody or a tag past the u16 count would write a
// length prefix the peer must reject, so Conn::SendFrame drops it
// (frames_rejected) rather than desynchronizing the stream.
TEST(WireTest, OversizedFrameIsNeverEncoded) {
  net::Frame big = SampleFrame();
  big.payload.assign(net::kMaxFrameBody, 'p');
  EXPECT_FALSE(net::FrameFitsWire(big));
  EXPECT_TRUE(net::EncodeFrame(big).empty());

  net::Frame long_tag = SampleFrame();
  long_tag.tag.assign(0x10000, 't');
  EXPECT_FALSE(net::FrameFitsWire(long_tag));
  EXPECT_TRUE(net::EncodeFrame(long_tag).empty());

  EXPECT_TRUE(net::FrameFitsWire(SampleFrame()));
}

TEST(WireTest, DaemonStatsRoundTripsAndMerges) {
  net::DaemonStats s;
  s.frames_received = 100;
  s.parcels = 42;
  s.dedup_hits = 3;
  s.decoded_payloads = 17;
  s.decode_errors = 1;
  s.tag_counts.push_back({"query", {1234, 8}});
  s.tag_counts.push_back({"triplet", {999, 4}});
  s.bytes_into.push_back({2, 777});
  s.bytes_into.push_back({5, 111});

  net::DaemonStats out;
  ASSERT_TRUE(out.Decode(s.Encode()));
  EXPECT_EQ(out.parcels, 42u);
  EXPECT_EQ(out.dedup_hits, 3u);
  EXPECT_EQ(out.tag_counts, s.tag_counts);
  EXPECT_EQ(out.bytes_into, s.bytes_into);

  net::DaemonStats other;
  other.parcels = 8;
  other.tag_counts.push_back({"query", {6, 2}});
  other.bytes_into.push_back({2, 3});
  out.MergeFrom(other);
  EXPECT_EQ(out.parcels, 50u);
  std::map<std::string, uint64_t> tag_bytes;
  for (const auto& [tag, counts] : out.tag_counts) {
    tag_bytes[tag] += counts.first;
  }
  EXPECT_EQ(tag_bytes["query"], 1240u);

  EXPECT_FALSE(out.Decode("not a stats blob"));
}

// ---- Fault injection ---------------------------------------------------

TEST(FaultsTest, DeterministicSeededAndBoundedRetries) {
  const net::FaultInjector a(/*seed=*/7, /*endpoint=*/1);
  const net::FaultInjector b(/*seed=*/7, /*endpoint=*/1);
  const net::FaultInjector off(/*seed=*/0, /*endpoint=*/1);
  EXPECT_FALSE(off.enabled());
  ASSERT_TRUE(a.enabled());

  int faulted = 0;
  for (uint64_t seq = 1; seq <= 2000; ++seq) {
    const net::FaultDecision da = a.Decide(seq, 1);
    const net::FaultDecision db = b.Decide(seq, 1);
    EXPECT_EQ(static_cast<int>(da.action), static_cast<int>(db.action));
    EXPECT_EQ(da.delay_seconds, db.delay_seconds);
    if (da.action != net::FaultAction::kDeliver) ++faulted;
    // Retransmissions past the always-deliver attempt are never
    // dropped or delayed — the bounded retry budget always converges.
    const net::FaultDecision late = a.Decide(seq, net::kAlwaysDeliverAttempt);
    EXPECT_NE(static_cast<int>(late.action),
              static_cast<int>(net::FaultAction::kDrop));
    EXPECT_NE(static_cast<int>(late.action),
              static_cast<int>(net::FaultAction::kDelay));
    // Seed 0 always delivers.
    EXPECT_EQ(static_cast<int>(off.Decide(seq, 1).action),
              static_cast<int>(net::FaultAction::kDeliver));
  }
  // Roughly a quarter of first sends should be faulted (12% drop, 10%
  // delay, 6% duplicate); allow a wide band.
  EXPECT_GT(faulted, 2000 / 10);
  EXPECT_LT(faulted, 2000 / 2);
}

// ---- ProcessBackend end-to-end ----------------------------------------

/// The cross-backend comparable slice (mirrors
/// backend_differential_test.cc).
void ExpectReportsAgree(const RunReport& sim, const RunReport& proc,
                        const std::string& context) {
  EXPECT_EQ(sim.answer, proc.answer) << context;
  EXPECT_EQ(sim.total_ops, proc.total_ops) << context;
  EXPECT_EQ(sim.network_bytes, proc.network_bytes) << context;
  EXPECT_EQ(sim.network_messages, proc.network_messages) << context;
  EXPECT_EQ(sim.visits_per_site, proc.visits_per_site) << context;
  EXPECT_EQ(sim.eq_system_entries, proc.eq_system_entries) << context;
}

/// The session's ProcessBackend, seen through the tracing decorator
/// that $PARBOX_TRACE installs.
exec::ProcessBackend* ProcOf(Session* session) {
  exec::ExecBackend* backend = &session->backend();
  if (auto* traced = dynamic_cast<obs::TracingBackend*>(backend)) {
    backend = &traced->inner();
  }
  return dynamic_cast<exec::ProcessBackend*>(backend);
}

TEST(ProcessBackendTest, MatchesSimAcrossTransports) {
  for (const std::string& spec : {std::string("proc:2"),
                                  std::string("proc:3,tcp")}) {
    testutil::RandomScenario scenario =
        testutil::MakeRandomScenario(321, 100, 6);
    auto sim = Session::Create(
        static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
        SessionOptions{.backend = "sim"});
    auto proc = Session::Create(
        static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
        SessionOptions{.backend = spec});
    ASSERT_TRUE(sim.ok());
    ASSERT_TRUE(proc.ok()) << spec << ": " << proc.status().ToString();
    EXPECT_EQ(proc->backend().name(), "proc");

    Rng rng(99);
    for (int i = 0; i < 2; ++i) {
      xpath::NormQuery q =
          xpath::Normalize(*testutil::RandomQual(&rng, 3));
      auto sim_q = sim->Prepare(&q);
      auto proc_q = proc->Prepare(&q);
      ASSERT_TRUE(sim_q.ok() && proc_q.ok());
      auto sim_report = sim->Execute(*sim_q);
      auto proc_report = proc->Execute(*proc_q);
      ASSERT_TRUE(sim_report.ok() && proc_report.ok());
      ExpectReportsAgree(*sim_report, *proc_report, spec);
    }
  }
}

// The daemons' own after-dedup meters must agree with the
// coordinator's logical traffic: every cross-site parcel routes
// through exactly one daemon, each side counting its wire bytes once.
TEST(ProcessBackendTest, DaemonMetersMatchCoordinatorTraffic) {
  testutil::RandomScenario scenario = testutil::MakeRandomScenario(77, 90, 5);
  auto proc = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "proc:2"});
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  Rng rng(5);
  auto q = proc->Prepare(xpath::Normalize(*testutil::RandomQual(&rng, 3)));
  ASSERT_TRUE(q.ok());
  auto report = proc->Execute(*q);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  exec::ProcessBackend* backend = ProcOf(&*proc);
  ASSERT_NE(backend, nullptr);
  const sim::TrafficStats& traffic = proc->backend().traffic();
  ASSERT_GT(traffic.total_messages(), 0u);

  const net::DaemonStats merged = backend->MergedDaemonStats();
  std::map<std::string, std::pair<uint64_t, uint64_t>> daemon_tags;
  for (const auto& [tag, counts] : merged.tag_counts) {
    daemon_tags[tag].first += counts.first;
    daemon_tags[tag].second += counts.second;
  }
  uint64_t daemon_msgs = 0;
  for (const auto& [tag, bytes] : traffic.bytes_by_tag()) {
    EXPECT_EQ(daemon_tags[tag].first, bytes) << tag;
    EXPECT_EQ(daemon_tags[tag].second, traffic.messages_with_tag(tag))
        << tag;
    daemon_msgs += daemon_tags[tag].second;
  }
  EXPECT_EQ(daemon_msgs, traffic.total_messages());
  EXPECT_EQ(merged.parcels, traffic.total_messages());
  // Every triplet batch crossed as codec bytes the daemon decoded.
  EXPECT_EQ(merged.decode_errors, 0u);
  EXPECT_EQ(merged.decoded_payloads, traffic.messages_with_tag("triplet"));
}

// Seeded fault injection: drops, delays, and duplicates on the wire
// must not change any observable quantity — the at-least-once protocol
// (same-seq retransmits, daemon seq dedup, duplicate-ack drops)
// absorbs them all. Short timeouts keep retransmits fast.
TEST(ProcessBackendTest, SeededFaultsPreserveBitIdentity) {
  setenv("PARBOX_NET_FAULTS", "1337", 1);
  setenv("PARBOX_NET_TIMEOUT_MS", "25", 1);
  testutil::RandomScenario scenario =
      testutil::MakeRandomScenario(555, 110, 6);
  auto sim = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "sim"});
  auto proc = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "proc:2"});
  unsetenv("PARBOX_NET_FAULTS");
  unsetenv("PARBOX_NET_TIMEOUT_MS");
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();

  Rng rng(31);
  uint64_t faults = 0;
  for (int i = 0; i < 4; ++i) {
    xpath::NormQuery q = xpath::Normalize(*testutil::RandomQual(&rng, 3));
    auto sim_q = sim->Prepare(&q);
    auto proc_q = proc->Prepare(&q);
    ASSERT_TRUE(sim_q.ok() && proc_q.ok());
    auto sim_report = sim->Execute(*sim_q);
    auto proc_report = proc->Execute(*proc_q);
    ASSERT_TRUE(sim_report.ok() && proc_report.ok());
    ExpectReportsAgree(*sim_report, *proc_report,
                       "faulted query " + std::to_string(i));
    faults = ProcOf(&*proc)->faults_injected();
  }
  // The seed must actually have exercised the chaos path, and the
  // retry machinery must have recovered the drops.
  EXPECT_GT(faults, 0u);
  EXPECT_GT(ProcOf(&*proc)->retries(), 0u);
}

// Kill a site daemon mid-session: the next execution must transparently
// respawn it and produce the same answers, the daemon's sites must
// announce a new RecoveryEpoch, and SyncRecovery must re-ship exactly
// the dead daemon's sites' fragments over the "migrate" path.
TEST(ProcessBackendTest, DaemonKillRecoversAndReshipsOnlyDeadSites) {
  testutil::RandomScenario scenario = testutil::MakeRandomScenario(42, 80, 5);
  auto sim = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "sim"});
  auto proc = Session::Create(
      static_cast<const FragmentSet*>(&scenario.set), &scenario.st,
      SessionOptions{.backend = "proc:2"});
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE(proc.ok()) << proc.status().ToString();
  exec::ProcessBackend* backend = ProcOf(&*proc);
  ASSERT_NE(backend, nullptr);

  Rng rng(17);
  xpath::NormQuery q = xpath::Normalize(*testutil::RandomQual(&rng, 3));
  auto sim_q = sim->Prepare(&q);
  auto proc_q = proc->Prepare(&q);
  ASSERT_TRUE(sim_q.ok() && proc_q.ok());
  auto sim_report = sim->Execute(*sim_q);
  ASSERT_TRUE(sim_report.ok());
  auto before = proc->Execute(*proc_q);
  ASSERT_TRUE(before.ok());
  ExpectReportsAgree(*sim_report, *before, "before kill");

  // SIGKILL daemon 0 — its pinned factories and shipped fragments die
  // with it.
  const pid_t victim = backend->daemon_pid(0);
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(victim, SIGKILL), 0);

  // The next execution reconnects (fresh spawn, new boot nonce) and
  // still agrees with the sim bit-for-bit.
  auto after = proc->Execute(*proc_q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectReportsAgree(*sim_report, *after, "after kill");
  EXPECT_GE(backend->reconnects(), 1u);
  EXPECT_NE(backend->daemon_pid(0), victim);

  // Epochs: only daemon 0's sites advanced.
  const exec::SiteId coordinator = proc->backend().coordinator();
  for (exec::SiteId s = 0; s < proc->backend().num_sites(); ++s) {
    if (s == coordinator) continue;
    EXPECT_EQ(backend->RecoveryEpoch(s), s % 2 == 0 ? 1u : 0u)
        << "site " << s;
  }

  // The kill was detected during Execute's Reset — after its plan()
  // snapshot — so the epoch advance is still unconsumed. SyncRecovery
  // now re-ships exactly the dead daemon's sites' live fragments over
  // the metered "migrate" path (and nothing for the surviving
  // daemon's sites).
  proc->SyncRecovery();
  const sim::TrafficStats& traffic = proc->backend().traffic();
  uint64_t expected = 0;
  for (exec::SiteId s = 0; s < proc->backend().num_sites(); ++s) {
    if (s == coordinator || s % 2 != 0) continue;
    for (frag::FragmentId f : scenario.st.fragments_at(s)) {
      if (scenario.set.is_live(f)) {
        expected += scenario.set.FragmentSerializedBytes(f);
      }
    }
  }
  ASSERT_GT(expected, 0u) << "scenario places nothing on daemon 0";
  EXPECT_EQ(traffic.bytes_with_tag("migrate"), expected);
  // A second sync finds nothing new.
  const uint64_t once = traffic.bytes_with_tag("migrate");
  proc->SyncRecovery();
  EXPECT_EQ(proc->backend().traffic().bytes_with_tag("migrate"), once)
      << "double re-ship";

  // And the answers keep matching after recovery.
  auto again = proc->Execute(*proc_q);
  ASSERT_TRUE(again.ok());
  ExpectReportsAgree(*sim_report, *again, "after recovery");
}

}  // namespace
}  // namespace parbox

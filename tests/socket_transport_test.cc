// Real socket transport (wire layer of the owners→servers architecture):
// frame codec hardening, listener/sender loopback behavior, hostile-frame
// rejection with per-connection public counters, wire backpressure, and the
// determinism contract: a loopback deployment (frames over real TCP)
// reproduces the in-process SynchronousDeployment bit for bit — summaries and
// transcripts — for every DP strategy at 1/2/8 threads, on both the epoll
// and the portable poll() event paths. Runs under the TSan CI job alongside
// the other transport suites, and under the ASan job for the hostile paths.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/core/owner_client.h"
#include "src/net/frame_codec.h"
#include "src/net/socket_transport.h"
#include "src/net/upload_channel.h"
#include "src/oblivious/formats.h"
#include "src/storage/serialization.h"
#include "src/workload/generators.h"

namespace incshrink {
namespace {

void ExpectStatIdentical(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void ExpectSummaryIdentical(const RunSummary& a, const RunSummary& b) {
  ExpectStatIdentical(a.l1_error, b.l1_error);
  ExpectStatIdentical(a.relative_error, b.relative_error);
  ExpectStatIdentical(a.true_count_stat, b.true_count_stat);
  ExpectStatIdentical(a.qet_seconds, b.qet_seconds);
  ExpectStatIdentical(a.transform_seconds, b.transform_seconds);
  ExpectStatIdentical(a.shrink_seconds, b.shrink_seconds);
  EXPECT_EQ(a.total_mpc_seconds, b.total_mpc_seconds);
  EXPECT_EQ(a.total_query_seconds, b.total_query_seconds);
  EXPECT_EQ(a.final_view_mb, b.final_view_mb);
  EXPECT_EQ(a.final_view_rows, b.final_view_rows);
  EXPECT_EQ(a.final_cache_rows, b.final_cache_rows);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_real_entries_cached, b.total_real_entries_cached);
  EXPECT_EQ(a.final_true_count, b.final_true_count);
}

GeneratedWorkload SmallTpcDs() {
  TpcDsParams p;
  p.steps = 30;
  p.seed = 77;
  return GenerateTpcDs(p);
}

std::vector<uint8_t> SmallFramePayload(uint64_t owner_step) {
  UploadFrame frame;
  frame.owner_step = owner_step;
  frame.batch = SharedRows(kSrcWidth);
  frame.arrivals.push_back({owner_step, 1, 2, 3, 4});
  return EncodeUploadFrame(frame);
}

/// Polls the listener until `pred` holds or `limit` sweeps elapse.
template <typename Pred>
bool PollUntil(SocketListener* listener, Pred pred, int limit = 5000) {
  for (int i = 0; i < limit; ++i) {
    listener->Poll();
    if (pred()) return true;
  }
  return pred();
}

SocketListenerOptions TestListenerOptions() {
  SocketListenerOptions opt;
  opt.poll_timeout_ms = 1;
  return opt;
}

/// A hostile peer: a raw blocking TCP connection that can put arbitrary
/// bytes on the wire, under no codec discipline whatsoever.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() { Close(); }

  bool ok() const { return fd_ >= 0; }

  void Send(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

// ---------------------------------------------------------------------------
// Frame codec (pure bytes, no sockets)
// ---------------------------------------------------------------------------

TEST(FrameCodecTest, HelloAndEnvelopesRoundTripIncrementally) {
  std::vector<uint8_t> stream = EncodeHello(3);
  const std::vector<uint8_t> p1 = SmallFramePayload(1);
  const std::vector<uint8_t> p2 = SmallFramePayload(2);
  AppendEnvelope(&stream, 1, p1);
  AppendEnvelope(&stream, 2, p2);
  FrameAssembler assembler(1 << 20);
  // Feed byte by byte: the assembler must never mis-frame a partial read.
  uint32_t channel_id = 99;
  bool hello_done = false;
  std::vector<WireFrame> frames;
  for (uint8_t byte : stream) {
    assembler.Feed(&byte, 1);
    if (!hello_done) {
      const Result<bool> hello = assembler.TakeHello(&channel_id);
      ASSERT_TRUE(hello.ok());
      hello_done = *hello;
      continue;
    }
    for (;;) {
      WireFrame frame;
      const Result<bool> got = assembler.TakeFrame(&frame);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (!*got) break;
      frames.push_back(std::move(frame));
    }
  }
  EXPECT_EQ(channel_id, 3u);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].seq, 1u);
  EXPECT_EQ(frames[0].payload, p1);
  EXPECT_EQ(frames[1].seq, 2u);
  EXPECT_EQ(frames[1].payload, p2);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  EXPECT_EQ(assembler.last_seq(), 2u);
}

TEST(FrameCodecTest, HostileEnvelopesPoisonTheStream) {
  {
    FrameAssembler assembler(1 << 20);
    const std::vector<uint8_t> bad_hello = {'X', 'X', 'X', 'X', 0, 0, 0, 0};
    assembler.Feed(bad_hello.data(), bad_hello.size());
    uint32_t channel_id = 0;
    EXPECT_FALSE(assembler.TakeHello(&channel_id).ok());
    EXPECT_TRUE(assembler.poisoned());
    // Poison is sticky.
    EXPECT_FALSE(assembler.TakeHello(&channel_id).ok());
  }
  {
    // Oversized length prefix: rejected from the header alone, before any
    // payload arrives (a hostile 4 GiB claim must never allocate).
    FrameAssembler assembler(1024);
    std::vector<uint8_t> env;
    AppendEnvelope(&env, 1, std::vector<uint8_t>(2048, 0));
    assembler.Feed(env.data(), kEnvelopeBytes);  // header only
    WireFrame frame;
    EXPECT_FALSE(assembler.TakeFrame(&frame).ok());
    EXPECT_TRUE(assembler.poisoned());
  }
  {
    // Sequence stamp break (2 instead of 1): dropped/reordered/injected
    // frames are detected at the envelope, before the payload decoder.
    FrameAssembler assembler(1 << 20);
    std::vector<uint8_t> env;
    AppendEnvelope(&env, 2, SmallFramePayload(1));
    assembler.Feed(env.data(), env.size());
    WireFrame frame;
    EXPECT_FALSE(assembler.TakeFrame(&frame).ok());
  }
  {
    // A zero-length payload is not expressible: reject, don't spin.
    FrameAssembler assembler(1 << 20);
    const std::vector<uint8_t> env = {0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0};
    assembler.Feed(env.data(), env.size());
    WireFrame frame;
    EXPECT_FALSE(assembler.TakeFrame(&frame).ok());
  }
}

// ---------------------------------------------------------------------------
// Listener/sender loopback behavior — parameterized over both event paths
// ---------------------------------------------------------------------------

class SocketLoopbackTest : public ::testing::TestWithParam<bool> {
 protected:
  SocketListenerOptions ListenerOptions() {
    SocketListenerOptions opt = TestListenerOptions();
    opt.use_epoll = GetParam();
    return opt;
  }
};

INSTANTIATE_TEST_SUITE_P(EventPaths, SocketLoopbackTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "epoll" : "poll";
                         });

TEST_P(SocketLoopbackTest, FramesArriveInOrderWithPublicCounters) {
  UploadChannel ch0(16), ch1(16);
  SocketListener listener({&ch0, &ch1}, ListenerOptions());
  ASSERT_TRUE(listener.Bind().ok());
  ASSERT_GT(listener.port(), 0);

  SocketSender s0, s1;
  ASSERT_TRUE(s0.Connect("127.0.0.1", listener.port(), 0).ok());
  ASSERT_TRUE(s1.Connect("127.0.0.1", listener.port(), 1).ok());
  std::vector<std::vector<uint8_t>> sent0, sent1;
  for (uint64_t i = 1; i <= 5; ++i) {
    sent0.push_back(SmallFramePayload(i));
    ASSERT_TRUE(s0.QueueFrame(sent0.back()).ok());
    sent1.push_back(SmallFramePayload(i + 100));
    ASSERT_TRUE(s1.QueueFrame(sent1.back()).ok());
  }
  ASSERT_TRUE(s0.Flush().ok());
  ASSERT_TRUE(s1.Flush().ok());
  ASSERT_TRUE(s0.fully_flushed());
  ASSERT_TRUE(PollUntil(&listener,
                        [&] { return ch0.depth() == 5 && ch1.depth() == 5; }));

  for (uint64_t i = 0; i < 5; ++i) {
    std::vector<uint8_t> frame;
    ASSERT_TRUE(ch0.TryPop(&frame));
    EXPECT_EQ(frame, sent0[i]);  // FIFO, byte-exact
    ASSERT_TRUE(ch1.TryPop(&frame));
    EXPECT_EQ(frame, sent1[i]);
  }
  EXPECT_EQ(listener.connections_accepted(), 2u);
  EXPECT_EQ(listener.frames_delivered(), 10u);
  EXPECT_EQ(listener.frames_rejected(), 0u);
  const std::vector<ConnectionStats> stats = listener.Stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const ConnectionStats& cs : stats) {
    EXPECT_TRUE(cs.hello_done);
    EXPECT_EQ(cs.frames_delivered, 5u);
    EXPECT_EQ(cs.last_seq, 5u);
    EXPECT_TRUE(cs.open);
  }
}

TEST_P(SocketLoopbackTest, HostileFramesRejectedWithoutPerturbingOthers) {
  UploadChannel ch0(64), ch1(64);
  SocketListener listener({&ch0, &ch1}, ListenerOptions());
  ASSERT_TRUE(listener.Bind().ok());

  // An honest tenant on channel 0; its stream must survive every attack on
  // channel 1 (and on the hello) untouched.
  SocketSender honest;
  ASSERT_TRUE(honest.Connect("127.0.0.1", listener.port(), 0).ok());

  struct HostileCase {
    const char* name;
    std::vector<uint8_t> wire_bytes;  // sent verbatim on a fresh connection
    bool close_after = false;         // truncate-then-close attacks
  };
  std::vector<HostileCase> cases;
  cases.push_back(
      {"bad hello magic", {'X', 'X', 'X', 'X', 1, 0, 0, 0}, false});
  {
    // Hello naming a channel the engine does not have.
    cases.push_back({"unknown channel id", EncodeHello(7), false});
  }
  {
    // Zero length prefix after a valid hello.
    std::vector<uint8_t> wire = EncodeHello(1);
    const std::vector<uint8_t> env = {0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0};
    wire.insert(wire.end(), env.begin(), env.end());
    cases.push_back({"zero length prefix", wire, false});
  }
  {
    // Length prefix beyond max_frame_bytes: rejected from the header, no
    // allocation, no waiting for the (never-coming) payload.
    std::vector<uint8_t> wire = EncodeHello(1);
    const uint32_t huge = (1u << 20) + 1;
    wire.push_back(static_cast<uint8_t>(huge));
    wire.push_back(static_cast<uint8_t>(huge >> 8));
    wire.push_back(static_cast<uint8_t>(huge >> 16));
    wire.push_back(static_cast<uint8_t>(huge >> 24));
    for (int i = 0; i < 8; ++i) wire.push_back(i == 0 ? 1 : 0);  // seq 1
    cases.push_back({"oversized length prefix", wire, false});
  }
  {
    // First stamp is 7, not 1: transport-level injection/reorder.
    std::vector<uint8_t> wire = EncodeHello(1);
    AppendEnvelope(&wire, 7, SmallFramePayload(1));
    cases.push_back({"sequence break", wire, false});
  }
  {
    // Hostile IUF dimension header (width = rows = 2^32, the ParseShareBlob
    // wrap) inside a perfectly well-formed envelope: the payload validator
    // must reject it at the door.
    std::vector<uint8_t> payload = {'I', 'U', 'F', 1};
    for (int i = 0; i < 8; ++i) payload.push_back(0);  // owner_step
    for (int i = 0; i < 16; ++i) {
      payload.push_back((i % 8) == 4 ? 1 : 0);  // width = rows = 2^32
    }
    std::vector<uint8_t> wire = EncodeHello(1);
    AppendEnvelope(&wire, 1, payload);
    cases.push_back({"overflowing dimensions", wire, false});
  }
  {
    // Garbage payload (bad IUF magic).
    std::vector<uint8_t> wire = EncodeHello(1);
    AppendEnvelope(&wire, 1, std::vector<uint8_t>(40, 0xEE));
    cases.push_back({"garbage payload", wire, false});
  }
  {
    // Truncated IUF body (valid prefix, missing tail) in a valid envelope.
    std::vector<uint8_t> payload = SmallFramePayload(1);
    payload.resize(payload.size() / 2);
    std::vector<uint8_t> wire = EncodeHello(1);
    AppendEnvelope(&wire, 1, payload);
    cases.push_back({"truncated payload", wire, false});
  }
  {
    // Part of an envelope header, then the peer vanishes: the leftover
    // partial bytes are a protocol violation, not a silent no-op.
    std::vector<uint8_t> wire = EncodeHello(1);
    wire.push_back(12);
    wire.push_back(0);
    wire.push_back(0);  // 3 of the 12 envelope header bytes
    cases.push_back({"truncated then closed", wire, true});
  }

  uint64_t honest_sent = 0;
  for (const HostileCase& hostile : cases) {
    SCOPED_TRACE(hostile.name);
    const uint64_t rejected_before = listener.frames_rejected();
    RawConn attacker(listener.port());
    ASSERT_TRUE(attacker.ok());
    attacker.Send(hostile.wire_bytes);
    if (hostile.close_after) attacker.Close();
    ASSERT_TRUE(PollUntil(&listener, [&] {
      return listener.frames_rejected() > rejected_before;
    })) << "attack was never rejected";
    EXPECT_EQ(listener.frames_rejected(), rejected_before + 1);

    // The honest tenant's stream is unperturbed: its next frame still
    // arrives, in order, on its own sequence stamps.
    ++honest_sent;
    ASSERT_TRUE(honest.QueueFrame(SmallFramePayload(honest_sent)).ok());
    ASSERT_TRUE(honest.Flush().ok());
    ASSERT_TRUE(
        PollUntil(&listener, [&] { return ch0.depth() == honest_sent; }));
    attacker.Close();
  }

  // Every attack cost exactly one closed connection with a public reason;
  // the honest connection is still open and clean.
  const std::vector<ConnectionStats> stats = listener.Stats();
  ASSERT_EQ(stats.size(), 1 + cases.size());
  size_t open_count = 0, rejected_conns = 0;
  for (const ConnectionStats& cs : stats) {
    if (cs.open) {
      ++open_count;
      EXPECT_EQ(cs.frames_rejected, 0u);
      EXPECT_EQ(cs.frames_delivered, honest_sent);
    } else {
      ++rejected_conns;
      EXPECT_EQ(cs.frames_rejected, 1u);
      EXPECT_FALSE(cs.last_error.empty());
    }
  }
  EXPECT_EQ(open_count, 1u);
  EXPECT_EQ(rejected_conns, cases.size());
  EXPECT_EQ(listener.frames_rejected(), cases.size());
  // Engine-side channels never saw a hostile frame, and the listener's
  // probe-before-push discipline kept their reject counters owner-only.
  EXPECT_TRUE(ch1.empty());
  EXPECT_EQ(ch0.push_rejects(), 0u);
  EXPECT_EQ(ch1.push_rejects(), 0u);
}

TEST_P(SocketLoopbackTest, WrongWidthFrameCostsOnlyItsConnection) {
  // A well-formed frame whose batch has the wrong row width is rejected at
  // the listener: it never reaches the engine, so it cannot cost the honest
  // T1 frame waiting for its pair, and the honest pair that follows steps
  // exactly as an in-process run does.
  const GeneratedWorkload workload = SmallTpcDs();
  IncShrinkConfig config = DefaultTpcDsConfig();
  config.strategy = Strategy::kDpTimer;
  SynchronousDeployment reference(config);
  ASSERT_TRUE(reference.Step(workload.t1[0], workload.t2[0]).ok());

  Engine engine(config);
  SocketListener listener({engine.channel1(), engine.channel2()},
                          ListenerOptions());
  ASSERT_TRUE(listener.Bind().ok());
  UploadChannel out1(4), out2(4);
  OwnerClient owner1 = MakeOwner1(config, &out1);
  OwnerClient owner2 = MakeOwner2(config, &out2);
  ASSERT_TRUE(owner1.TryStep(workload.t1[0]));
  ASSERT_TRUE(owner2.TryStep(workload.t2[0]));
  std::vector<uint8_t> frame1, frame2;
  ASSERT_TRUE(out1.TryPop(&frame1));
  ASSERT_TRUE(out2.TryPop(&frame2));

  SocketSender t1_sender;
  ASSERT_TRUE(t1_sender.Connect("127.0.0.1", listener.port(), 0).ok());
  ASSERT_TRUE(t1_sender.QueueFrame(frame1).ok());
  ASSERT_TRUE(t1_sender.Flush().ok());
  ASSERT_TRUE(
      PollUntil(&listener, [&] { return engine.channel1()->depth() == 1; }));

  // A forged T2 frame for the same owner step, three words per row.
  UploadFrame forged;
  forged.owner_step = 1;
  forged.batch = SharedRows(3);
  Rng rng(5);
  forged.batch.AppendSecretRow({1, 2, 3}, &rng);
  std::vector<uint8_t> wire = EncodeHello(1);
  AppendEnvelope(&wire, 1, EncodeUploadFrame(forged));
  RawConn attacker(listener.port());
  ASSERT_TRUE(attacker.ok());
  attacker.Send(wire);
  ASSERT_TRUE(
      PollUntil(&listener, [&] { return listener.frames_rejected() == 1; }));
  EXPECT_TRUE(engine.channel2()->empty());
  EXPECT_EQ(engine.channel1()->depth(), 1u);

  // The T2 owner's honest frame completes the pair.
  SocketSender t2_sender;
  ASSERT_TRUE(t2_sender.Connect("127.0.0.1", listener.port(), 1).ok());
  ASSERT_TRUE(t2_sender.QueueFrame(frame2).ok());
  ASSERT_TRUE(t2_sender.Flush().ok());
  ASSERT_TRUE(
      PollUntil(&listener, [&] { return engine.channel2()->depth() == 1; }));
  ASSERT_TRUE(engine.Step().ok());

  EXPECT_EQ(engine.frames_drained(), 2u);
  ExpectSummaryIdentical(engine.Summary(), reference.Summary());
  EXPECT_EQ(engine.transcript(), reference.transcript());
  EXPECT_EQ(listener.frames_rejected(), 1u);
  EXPECT_EQ(listener.frames_delivered(), 2u);
}

TEST_P(SocketLoopbackTest, FullChannelStagesFramesWithoutChannelRejects) {
  // A full engine channel pauses the connection (frames stay staged in the
  // listener, reads stop) instead of dropping frames or polluting the
  // channel's public reject counter — rejects stay an owner-side signal.
  UploadChannel ch(1);
  SocketListener listener({&ch}, ListenerOptions());
  ASSERT_TRUE(listener.Bind().ok());

  SocketSender sender;
  ASSERT_TRUE(sender.Connect("127.0.0.1", listener.port(), 0).ok());
  std::vector<std::vector<uint8_t>> sent;
  for (uint64_t i = 1; i <= 3; ++i) {
    sent.push_back(SmallFramePayload(i));
    ASSERT_TRUE(sender.QueueFrame(sent.back()).ok());
  }
  ASSERT_TRUE(sender.Flush().ok());

  ASSERT_TRUE(PollUntil(&listener, [&] { return ch.depth() == 1; }));
  // More sweeps change nothing: the channel is full, the rest stays staged.
  for (int i = 0; i < 50; ++i) listener.Poll();
  EXPECT_EQ(ch.depth(), 1u);
  EXPECT_EQ(listener.frames_delivered(), 1u);
  EXPECT_EQ(ch.push_rejects(), 0u);

  // Draining the channel lets the staged frames through, in order.
  std::vector<uint8_t> frame;
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(PollUntil(&listener, [&] { return !ch.empty(); }));
    ASSERT_TRUE(ch.TryPop(&frame));
    EXPECT_EQ(frame, sent[i]);
  }
  EXPECT_EQ(listener.frames_delivered(), 3u);
  EXPECT_EQ(listener.frames_rejected(), 0u);
  EXPECT_EQ(ch.push_rejects(), 0u);
}

TEST_P(SocketLoopbackTest, ReconnectRestartsStampsWithoutPerturbingOthers) {
  UploadChannel ch0(16), ch1(16);
  SocketListener listener({&ch0, &ch1}, ListenerOptions());
  ASSERT_TRUE(listener.Bind().ok());

  SocketSender bystander, flaky;
  ASSERT_TRUE(bystander.Connect("127.0.0.1", listener.port(), 0).ok());
  ASSERT_TRUE(flaky.Connect("127.0.0.1", listener.port(), 1).ok());
  ASSERT_TRUE(flaky.QueueFrame(SmallFramePayload(1)).ok());
  ASSERT_TRUE(flaky.QueueFrame(SmallFramePayload(2)).ok());
  ASSERT_TRUE(flaky.Flush().ok());
  ASSERT_TRUE(PollUntil(&listener, [&] { return ch1.depth() == 2; }));

  // The owner dies and comes back: a fresh connection, stamps restart at 1.
  ASSERT_TRUE(flaky.Reconnect().ok());
  EXPECT_EQ(flaky.next_seq(), 1u);
  ASSERT_TRUE(flaky.QueueFrame(SmallFramePayload(3)).ok());
  ASSERT_TRUE(flaky.Flush().ok());
  ASSERT_TRUE(PollUntil(&listener, [&] { return ch1.depth() == 3; }));

  // The old connection's EOF was a clean close, not a reject, and the
  // bystander still works.
  EXPECT_EQ(listener.frames_rejected(), 0u);
  EXPECT_GE(listener.connections_closed(), 1u);
  ASSERT_TRUE(bystander.QueueFrame(SmallFramePayload(1)).ok());
  ASSERT_TRUE(bystander.Flush().ok());
  ASSERT_TRUE(PollUntil(&listener, [&] { return ch0.depth() == 1; }));
  EXPECT_EQ(listener.frames_delivered(), 4u);
}

TEST_P(SocketLoopbackTest, IdleConnectionsEvictedByPollRoundsNotWallTime) {
  SocketListenerOptions opt = ListenerOptions();
  opt.idle_poll_limit = 8;
  UploadChannel ch(16);
  SocketListener listener({&ch}, opt);
  ASSERT_TRUE(listener.Bind().ok());

  SocketSender sender;
  ASSERT_TRUE(sender.Connect("127.0.0.1", listener.port(), 0).ok());
  ASSERT_TRUE(sender.Flush().ok());  // hello
  ASSERT_TRUE(PollUntil(&listener,
                        [&] { return listener.open_connections() == 1; }));

  // A dead owner is evicted after idle_poll_limit byte-less sweeps — a
  // deterministic function of the driver's schedule, not of wall time.
  for (int i = 0; i < 64 && listener.open_connections() > 0; ++i) {
    listener.Poll();
  }
  EXPECT_EQ(listener.open_connections(), 0u);
  EXPECT_GE(listener.connections_closed(), 1u);
  EXPECT_EQ(listener.frames_rejected(), 0u);  // idleness is not hostility

  // ... and just reconnects.
  ASSERT_TRUE(sender.Reconnect().ok());
  ASSERT_TRUE(sender.QueueFrame(SmallFramePayload(1)).ok());
  ASSERT_TRUE(sender.Flush().ok());
  ASSERT_TRUE(PollUntil(&listener, [&] { return ch.depth() == 1; }));
}

TEST(SocketReconnectTest, BoundedRoundScheduleGivesUpAfterNAttempts) {
  // A port that refuses connections: bind a listener, note the port, tear
  // the listener down. Loopback refusals are immediate, so each re-dial
  // attempt fails within one ReconnectRound call.
  uint16_t dead_port = 0;
  {
    UploadChannel ch(4);
    SocketListener listener({&ch}, TestListenerOptions());
    ASSERT_TRUE(listener.Bind().ok());
    dead_port = listener.port();
  }

  SocketSenderOptions opt;
  opt.connect_attempts = 1;  // one dial per ReconnectRound
  opt.connect_timeout_ms = 50;
  opt.reconnect_backoff_rounds = 1;
  opt.reconnect_backoff_max_rounds = 4;
  opt.reconnect_max_attempts = 3;
  SocketSender sender(opt);
  EXPECT_FALSE(sender.Connect("127.0.0.1", dead_port, 0).ok());
  EXPECT_FALSE(sender.connected());

  // Deterministic round schedule with base 1 doubling to cap 4 and three
  // attempts per outage:
  //   round 1: attempt #1 fails, back off 1 round
  //   round 2: wait
  //   round 3: attempt #2 fails, back off 2 rounds
  //   rounds 4-5: wait
  //   round 6: attempt #3 fails -> permanent give-up
  const bool expect_wait[] = {false, true, false, true, true, false};
  for (int round = 0; round < 6; ++round) {
    const uint64_t attempts_before = sender.reconnect_attempts();
    EXPECT_FALSE(sender.ReconnectRound());
    const bool waited = sender.reconnect_attempts() == attempts_before;
    EXPECT_EQ(waited, expect_wait[round]) << "round " << round + 1;
  }
  EXPECT_TRUE(sender.reconnect_gave_up());
  EXPECT_EQ(sender.reconnect_attempts(), 3u);
  EXPECT_EQ(sender.reconnect_rounds_waited(), 3u);
  EXPECT_EQ(sender.reconnect_successes(), 0u);

  // Given up means given up: further rounds are inert no-ops, not retries.
  for (int round = 0; round < 16; ++round) {
    EXPECT_FALSE(sender.ReconnectRound());
  }
  EXPECT_EQ(sender.reconnect_attempts(), 3u);
  EXPECT_EQ(sender.reconnect_rounds_waited(), 3u);

  // An explicit Connect() starts a fresh outage cycle: the verdict clears,
  // and against a live listener the sender comes back and delivers.
  UploadChannel ch(4);
  SocketListener listener({&ch}, TestListenerOptions());
  ASSERT_TRUE(listener.Bind().ok());
  ASSERT_TRUE(sender.Connect("127.0.0.1", listener.port(), 0).ok());
  EXPECT_FALSE(sender.reconnect_gave_up());
  EXPECT_TRUE(sender.ReconnectRound());  // already-connected round: no-op
  EXPECT_EQ(sender.reconnect_attempts(), 3u);
  ASSERT_TRUE(sender.QueueFrame(SmallFramePayload(1)).ok());
  ASSERT_TRUE(sender.Flush().ok());
  ASSERT_TRUE(PollUntil(&listener, [&] { return ch.depth() == 1; }));

  // Mid-outage recovery: drop the connection while the listener stays up —
  // the first re-dial round succeeds, counting a success and no give-up.
  sender.CloseConn();
  EXPECT_FALSE(sender.connected());
  EXPECT_TRUE(sender.ReconnectRound());
  EXPECT_TRUE(sender.connected());
  EXPECT_EQ(sender.reconnect_successes(), 1u);
  EXPECT_FALSE(sender.reconnect_gave_up());
}

TEST(SocketBackpressureTest, KernelBackpressureReachesTheSenderAndConserves) {
  // End-to-end wire backpressure: a full engine channel pauses reads, the
  // kernel buffers fill, Flush stops making progress (!fully_flushed) — and
  // once the engine drains, every byte arrives intact and in order.
  SocketListenerOptions opt = TestListenerOptions();
  opt.validate_frames = false;  // opaque big frames, transport-level test
  UploadChannel ch(1);
  SocketListener listener({&ch}, opt);
  ASSERT_TRUE(listener.Bind().ok());

  SocketSender sender;
  ASSERT_TRUE(sender.Connect("127.0.0.1", listener.port(), 0).ok());

  // Deterministic 1 MiB payloads (pattern, not entropy). The total (16 MiB)
  // clears the worst-case kernel absorption — sndbuf autotunes to at most
  // tcp_wmem[2] (4 MiB here) and the paused receive side stops growing —
  // so the sender is guaranteed to observe a stall.
  auto make_payload = [](uint64_t stamp) {
    std::vector<uint8_t> payload(1024 * 1024);
    for (size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<uint8_t>(stamp * 31 + j * 7);
    }
    return payload;
  };
  const uint64_t kFrames = 16;
  for (uint64_t i = 1; i <= kFrames; ++i) {
    ASSERT_TRUE(sender.QueueFrame(make_payload(i)).ok());
  }

  // Flush + poll without draining the channel: the first frame lands, the
  // rest back up through the kernel into the sender's buffer.
  bool saw_stall = false;
  for (int i = 0; i < 2000 && !sender.fully_flushed(); ++i) {
    ASSERT_TRUE(sender.Flush().ok());
    listener.Poll();
    if (!sender.fully_flushed() && ch.depth() == 1) saw_stall = true;
  }
  EXPECT_TRUE(saw_stall) << "sender never observed wire backpressure";
  EXPECT_FALSE(sender.fully_flushed());
  EXPECT_GT(sender.pending_bytes(), 0u);
  EXPECT_EQ(ch.depth(), 1u);

  // Drain: pop frames while pumping both ends; conservation requires all
  // kFrames payloads byte-exact in emission order.
  uint64_t received = 0;
  for (int i = 0; i < 20000 && received < kFrames; ++i) {
    ASSERT_TRUE(sender.Flush().ok());
    listener.Poll();
    std::vector<uint8_t> frame;
    while (ch.TryPop(&frame)) {
      ++received;
      EXPECT_EQ(frame, make_payload(received));
    }
  }
  EXPECT_EQ(received, kFrames);
  EXPECT_TRUE(sender.fully_flushed());
  EXPECT_EQ(listener.frames_delivered(), kFrames);
  EXPECT_EQ(listener.frames_rejected(), 0u);
}

// ---------------------------------------------------------------------------
// Socket-run == in-process-run, bit for bit
// ---------------------------------------------------------------------------

class SocketEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Strategy, int>> {};

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndThreads, SocketEquivalenceTest,
    ::testing::Combine(::testing::Values(Strategy::kDpTimer, Strategy::kDpAnt,
                                         Strategy::kEp),
                       ::testing::Values(1, 2, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Strategy, int>>& pinfo) {
      const char* strategy =
          std::get<0>(pinfo.param) == Strategy::kDpTimer  ? "Timer"
          : std::get<0>(pinfo.param) == Strategy::kDpAnt ? "ANT"
                                                         : "EP";
      return std::string(strategy) + "_threads" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST_P(SocketEquivalenceTest, WireRunReproducesInProcessRunBitForBit) {
  const GeneratedWorkload workload = SmallTpcDs();
  IncShrinkConfig config = DefaultTpcDsConfig();
  config.strategy = std::get<0>(GetParam());
  // Exercise the engine's internal parallelism under the socket feed: the
  // sharded cache steps on a deployment-local pool at every thread count.
  config.num_cache_shards = 2;
  config.cache_shard_threads = std::get<1>(GetParam());

  SynchronousDeployment in_process(config);
  ASSERT_TRUE(in_process.Run(workload.t1, workload.t2).ok());

  Result<std::unique_ptr<SynchronousDeployment>> wire =
      SynchronousDeployment::OverLoopback(config);
  ASSERT_TRUE(wire.ok()) << wire.status().message();
  ASSERT_TRUE((*wire)->Run(workload.t1, workload.t2).ok());

  ExpectSummaryIdentical((*wire)->Summary(), in_process.Summary());
  EXPECT_EQ((*wire)->transcript(), in_process.transcript());
  EXPECT_EQ((*wire)->engine().frames_drained(),
            in_process.engine().frames_drained());
  EXPECT_EQ((*wire)->listener()->frames_rejected(), 0u);
}

IncShrinkConfig SmallFilterConfig() {
  IncShrinkConfig config;
  config.eps = 1.5;
  config.omega = 1;
  config.budget_b = 1;
  config.view_kind = ViewKind::kFilter;
  config.filter = FilterSpec{100, 199};
  config.join.omega = 1;
  config.strategy = Strategy::kDpTimer;
  config.timer_T = 4;
  config.ant_theta = 6;
  config.flush_interval = 0;
  config.upload_rows_t1 = 4;
  config.upload_rows_t2 = 4;
  config.seed = 21;
  return config;
}

TEST(LoopbackDeploymentTest, FilterViewRunsOverTheWire) {
  // Filter views have a single owner stream; the deployment must not dial
  // (or wait on) a second connection, and must still be bit-identical.
  const uint64_t kSteps = 30;
  std::vector<std::vector<LogicalRecord>> t1(kSteps);
  const std::vector<std::vector<LogicalRecord>> t2(kSteps);
  Rng rng(22);
  Word rid = 1;
  for (uint64_t t = 0; t < kSteps; ++t) {
    const uint64_t n = rng.Uniform(4);
    for (uint64_t i = 0; i < n; ++i) {
      t1[t].push_back({t + 1, rid++, rid, static_cast<Word>(t + 1),
                       static_cast<Word>(rng.Uniform(300))});
    }
  }
  const IncShrinkConfig config = SmallFilterConfig();

  SynchronousDeployment in_process(config);
  ASSERT_TRUE(in_process.Run(t1, t2).ok());

  Result<std::unique_ptr<SynchronousDeployment>> wire =
      SynchronousDeployment::OverLoopback(config);
  ASSERT_TRUE(wire.ok()) << wire.status().message();
  ASSERT_TRUE((*wire)->Run(t1, t2).ok());

  ExpectSummaryIdentical((*wire)->Summary(), in_process.Summary());
  EXPECT_EQ((*wire)->transcript(), in_process.transcript());
  EXPECT_EQ((*wire)->listener()->connections_accepted(), 1u);
}

TEST(LoopbackDeploymentTest, PollFallbackPathIsBitIdenticalToo) {
  const GeneratedWorkload workload = SmallTpcDs();
  IncShrinkConfig config = DefaultTpcDsConfig();
  config.strategy = Strategy::kDpTimer;

  SynchronousDeployment in_process(config);
  ASSERT_TRUE(in_process.Run(workload.t1, workload.t2).ok());

  LoopbackOptions options;
  options.listener.use_epoll = false;
  Result<std::unique_ptr<SynchronousDeployment>> wire =
      SynchronousDeployment::OverLoopback(config, options);
  ASSERT_TRUE(wire.ok()) << wire.status().message();
  ASSERT_TRUE((*wire)->Run(workload.t1, workload.t2).ok());

  ExpectSummaryIdentical((*wire)->Summary(), in_process.Summary());
  EXPECT_EQ((*wire)->transcript(), in_process.transcript());
}

}  // namespace
}  // namespace incshrink

// owner_storm: Zipf(1.1) arrivals from 10k owners, sent as IUF frames over
// real loopback TCP into one validating SocketListener, driven from one
// thread as an open loop at fixed offered rates.

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "perfbench/workloads.h"
#include "src/net/socket_transport.h"
#include "src/net/upload_channel.h"
#include "src/oblivious/formats.h"
#include "src/storage/serialization.h"

namespace perfbench {

using namespace incshrink;

namespace {

constexpr uint64_t kSaltStorm = 7;
constexpr size_t kChannelCapacity = 64;
constexpr size_t kSenderBufferBytes = 64 << 10;  ///< unflushed bytes per conn
constexpr size_t kWindow = kChannelCapacity;  ///< closed-loop frames per conn
/// Open-loop cap on frames sent but not yet drained, per connection: the
/// listener reads sockets dry into its own buffer, so without a cap an
/// overloaded phase would park its whole backlog in listener memory.
constexpr size_t kMaxInFlight = 8192;
constexpr double kDrainGraceSeconds = 20;  ///< tail drain after emission

// Distinct frames of the storm; frame e belongs to owner Zipf-sampled from
// the seed and travels on connection owner mod conns.
struct StormPool {
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint32_t> conn;
  std::vector<std::vector<uint32_t>> by_conn;  ///< pool indices per conn
};

StormPool MakePool(uint64_t seed, const StormSize& size, size_t conns) {
  StormPool pool;
  Rng rng(DeriveSeed(seed, kSaltStorm));
  ZipfSampler sampler(static_cast<size_t>(size.owners), size.zipf_s);
  std::vector<uint64_t> owner_step(size.owners, 0);
  pool.by_conn.resize(conns);
  for (uint64_t e = 0; e < size.pool_events; ++e) {
    const size_t owner = sampler.Sample(&rng);
    UploadFrame frame;
    frame.owner_step = ++owner_step[owner];
    frame.batch = SharedRows(kSrcWidth);
    std::vector<Word> row(kSrcWidth);
    for (size_t c = 0; c < kSrcWidth; ++c) row[c] = rng.Next32();
    frame.batch.AppendSecretRow(row, &rng);
    LogicalRecord rec;
    rec.step = frame.owner_step;
    rec.rid = static_cast<uint32_t>(owner);
    rec.key = static_cast<uint32_t>(e);
    rec.date = rng.Next32();
    rec.payload = rng.Next32();
    frame.arrivals.push_back(rec);
    const uint32_t c = static_cast<uint32_t>(owner % conns);
    pool.by_conn[c].push_back(static_cast<uint32_t>(pool.payloads.size()));
    pool.payloads.push_back(EncodeUploadFrame(frame));
    pool.conn.push_back(c);
  }
  return pool;
}

// Frames one phase (or one reconnect probe) sent: connection c sent the
// first count[c] pool frames of connection c at or after cursor position
// `base`, in cursor order.
struct PhaseLog {
  uint64_t base = 0;
  std::vector<uint64_t> count;
};

// Listener, its channels and one sender per connection.
struct Rig {
  std::vector<std::unique_ptr<UploadChannel>> channels;
  std::unique_ptr<SocketListener> listener;
  std::vector<SocketSender> senders;
  std::vector<Fingerprint> drained_fp;  ///< per channel
  std::vector<PhaseLog> phases;  ///< in send order
  uint64_t sent_frames = 0;
  uint64_t drained_frames = 0;
};

Status MakeRig(size_t conns, Rig* rig) {
  std::vector<UploadChannel*> ptrs;
  for (size_t c = 0; c < conns; ++c) {
    rig->channels.push_back(std::make_unique<UploadChannel>(kChannelCapacity));
    ptrs.push_back(rig->channels.back().get());
  }
  SocketListenerOptions opt;
  opt.validate_frames = true;
  rig->listener = std::make_unique<SocketListener>(ptrs, opt);
  INCSHRINK_RETURN_NOT_OK(rig->listener->Bind(0));
  rig->senders.resize(conns);
  for (size_t c = 0; c < conns; ++c) {
    INCSHRINK_RETURN_NOT_OK(rig->senders[c].Connect(
        "127.0.0.1", rig->listener->port(), static_cast<uint32_t>(c)));
  }
  rig->drained_fp.resize(conns);
  return Status::OK();
}

struct PhaseSpec {
  double rate = 0;  ///< offered frames/s; 0 = closed loop
  double seconds = 0;
  double limit_s = 0;  ///< latency limit counted against
};

// One phase of the storm. Open loop (rate > 0): frame k of the phase is due
// at k / rate seconds after the phase starts, whatever happened to earlier
// frames; a connection takes its due frames while its sender holds less
// than kSenderBufferBytes unflushed and fewer than kMaxInFlight frames are
// undrained (the owner-side probe-before-send discipline), so an overloaded
// listener shows up as frames waiting at the owners. Closed loop
// (rate == 0): each connection keeps kWindow frames outstanding, and a
// frame is due when it is sent. Latency runs from due time to the moment
// the frame is popped from its channel; lag is how late a frame was handed
// to its sender. Frames still waiting at the owners when the phase ends are
// never sent; frames sent are all drained.
StormPhase RunPhase(const StormPool& pool, const PhaseSpec& spec,
                    uint64_t* cursor, Rig* rig, Tracer* tracer, Run* run,
                    std::vector<float>* latency_s, std::vector<float>* lag_s) {
  const size_t conns = rig->senders.size();
  const bool closed_loop = spec.rate <= 0;
  const uint64_t base = *cursor;
  const auto pool_index = [&](uint64_t k) {
    return static_cast<uint32_t>((base + k) % pool.payloads.size());
  };
  std::vector<uint64_t> next_k(conns, 0);  // scan position per connection
  std::vector<uint64_t> count(conns, 0);
  std::vector<std::deque<double>> in_flight(conns);  // due times, FIFO
  StormPhase phase;
  phase.offered_fps = spec.rate;
  uint64_t due = 0;  // open loop: frames due so far
  uint64_t sent = 0, drained = 0, drained_in_window = 0, over_limit = 0;
  bool window_open = true;
  const Clock::time_point start = Clock::now();
  std::vector<uint8_t> frame;
  while (true) {
    const double now = SecondsSince(start);
    if (window_open && now >= spec.seconds) {
      window_open = false;
      phase.unsent = closed_loop ? 0 : due - sent;
    }
    if (window_open && !closed_loop) {
      due = static_cast<uint64_t>(now * spec.rate);
    }
    if (!window_open) {
      if (drained == sent) break;
      if (now > spec.seconds + kDrainGraceSeconds) {
        run->failed += sent - drained;  // undelivered frames
        break;
      }
    }
    if (tracer != nullptr) tracer->NextStep();
    for (size_t c = 0; c < conns && window_open; ++c) {
      if (pool.by_conn[c].empty()) continue;
      SocketSender& sender = rig->senders[c];
      while (closed_loop ? in_flight[c].size() < kWindow
                         : sender.pending_bytes() < kSenderBufferBytes &&
                               in_flight[c].size() < kMaxInFlight) {
        uint64_t k = next_k[c];
        const uint64_t limit = closed_loop ? UINT64_MAX : due;
        while (k < limit && pool.conn[pool_index(k)] != c) ++k;
        next_k[c] = k;
        if (k >= limit) break;
        Status st;
        {
          Tracer::Span span(tracer, "SocketSender::QueueFrame");
          st = sender.QueueFrame(pool.payloads[pool_index(k)]);
        }
        if (!st.ok()) {
          ++run->failed;
          return phase;
        }
        ++next_k[c];
        ++count[c];
        ++sent;
        const double due_s = closed_loop ? now : static_cast<double>(k) / spec.rate;
        if (lag_s != nullptr) lag_s->push_back(static_cast<float>(now - due_s));
        in_flight[c].push_back(due_s);
      }
      Result<size_t> wrote = [&] {
        Tracer::Span span(tracer, "SocketSender::Flush");
        return sender.Flush();
      }();
      if (!wrote.ok()) {
        ++run->failed;
        return phase;
      }
    }
    if (!window_open) {
      // Push out what is still staged.
      for (SocketSender& sender : rig->senders) {
        Tracer::Span span(tracer, "SocketSender::Flush");
        if (!sender.Flush().ok()) ++run->failed;
      }
    }
    {
      Tracer::Span span(tracer, "SocketListener::Poll");
      rig->listener->Poll();
    }
    const double drained_at = SecondsSince(start);
    for (size_t c = 0; c < conns; ++c) {
      while (true) {
        bool popped = false;
        {
          Tracer::Span span(tracer, "UploadChannel::TryPop");
          popped = rig->channels[c]->TryPop(&frame);
        }
        if (!popped) break;
        rig->drained_fp[c].MixBytes(frame);
        ++rig->drained_frames;
        if (in_flight[c].empty()) {
          ++run->failed;  // a frame nobody sent
          continue;
        }
        const double latency = drained_at - in_flight[c].front();
        in_flight[c].pop_front();
        if (latency_s != nullptr) latency_s->push_back(static_cast<float>(latency));
        if (latency > spec.limit_s) ++over_limit;
        ++drained;
        if (drained_at < spec.seconds) ++drained_in_window;
      }
    }
  }
  phase.frames = sent;
  phase.drained_fps = static_cast<double>(drained_in_window) / spec.seconds;
  phase.over_limit_frac =
      static_cast<double>(over_limit) / static_cast<double>(std::max<uint64_t>(1, drained));
  uint64_t scanned = 0;
  for (const uint64_t k : next_k) scanned = std::max(scanned, k);
  *cursor = base + scanned;
  rig->sent_frames += sent;
  rig->phases.push_back({base, count});
  return phase;
}

// Reconnect one sender and time until a frame on the new connection is
// drained from its channel.
Status TimeReconnect(const StormPool& pool, size_t c, uint64_t* conn_cursor,
                     Rig* rig, double* seconds) {
  const std::vector<uint32_t>& mine = pool.by_conn[c];
  if (mine.empty()) return Status::OK();
  const uint32_t idx =
      mine[static_cast<size_t>((*conn_cursor)++ % mine.size())];
  std::vector<uint8_t> frame;
  const Clock::time_point start = Clock::now();
  INCSHRINK_RETURN_NOT_OK(rig->senders[c].Reconnect());
  INCSHRINK_RETURN_NOT_OK(rig->senders[c].QueueFrame(pool.payloads[idx]));
  PhaseLog probe{idx, std::vector<uint64_t>(rig->senders.size(), 0)};
  probe.count[c] = 1;
  rig->phases.push_back(std::move(probe));
  ++rig->sent_frames;
  while (SecondsSince(start) < 5.0) {
    Result<size_t> wrote = rig->senders[c].Flush();
    if (!wrote.ok()) return wrote.status();
    rig->listener->Poll();
    if (rig->channels[c]->TryPop(&frame)) {
      *seconds = SecondsSince(start);
      rig->drained_fp[c].MixBytes(frame);
      ++rig->drained_frames;
      return Status::OK();
    }
  }
  return Status::Internal("reconnected frame not delivered within 5 s");
}

// The in-process reference: the logged frames, in send order, pushed
// through one bounded in-process UploadChannel per connection.
std::vector<uint64_t> ReplayInProcess(const StormPool& pool, const Rig& rig) {
  std::vector<uint64_t> out;
  std::vector<uint8_t> frame;
  for (size_t c = 0; c < rig.senders.size(); ++c) {
    UploadChannel channel(kChannelCapacity);
    Fingerprint fp;
    for (const PhaseLog& log : rig.phases) {
      uint64_t k = log.base;
      for (uint64_t n = 0; n < log.count[c]; ++k) {
        const uint32_t idx = static_cast<uint32_t>(k % pool.payloads.size());
        if (pool.conn[idx] != c) continue;
        channel.TryPush(pool.payloads[idx]);
        if (channel.TryPop(&frame)) fp.MixBytes(frame);
        ++n;
      }
    }
    out.push_back(fp.hash);
  }
  return out;
}

}  // namespace

bool StormMatches(const StormEvidence& e) {
  return SameFingerprints(e.socket, e.replay) && e.rejected == 0 &&
         e.sent == e.drained;
}

void RunStorm(const RunArgs& args, const StormSize& size, Run* run,
              StormEvidence* evidence) {
  const HostInfo host = CollectHostInfo();
  const size_t conns = static_cast<size_t>(size.conns > 0 ? size.conns
                                                           : std::max(1, host.nproc));
  std::vector<double> setup_s;
  StormPool pool;
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < size.setup_reps; ++r) {
    const Clock::time_point start = Clock::now();
    pool = MakePool(args.seed, size, conns);
    rig = std::make_unique<Rig>();
    const Status st = MakeRig(conns, rig.get());
    setup_s.push_back(SecondsSince(start));
    if (!st.ok()) {
      std::fprintf(stderr, "storm set-up: %s\n", st.ToString().c_str());
      ++run->failed;
      ++run->attempted;
      return;
    }
  }

  // Phases: the open-loop rates, then the closed-loop capacity phase. They
  // run interleaved in short slices, cycling through all of them, each
  // cycle on the next CPU and followed by its share of the reconnect
  // probes, so every phase samples the host over the whole run. A traced
  // run follows every untraced slice with a traced one of the same phase.
  CpuRotation rotation;
  std::vector<double> recovery_s;
  uint64_t conn_cursor = 0;
  int probes_done = 0;
  const size_t phases = size.rates.size() + 1;
  const int passes = args.trace ? 2 : 1;
  const int cycles = std::max(
      1, static_cast<int>(args.seconds / (passes * phases * size.slice_s)));
  const double slice_s = args.seconds / (passes * phases * cycles);
  uint64_t cursor = 0;
  std::vector<std::vector<std::vector<StormPhase>>> slices(
      passes, std::vector<std::vector<StormPhase>>(phases));  // [pass][phase]
  std::vector<float> latency, lag;  // of the current slice
  latency.reserve(static_cast<size_t>(size.rates.back() * slice_s));
  lag.reserve(latency.capacity());
  for (int cycle = 0; cycle < cycles; ++cycle) {
    rotation.Next();
    for (size_t k = 0; k < phases; ++k) {
      for (int pass = 0; pass < passes; ++pass) {
        PhaseSpec spec;
        spec.rate = k < size.rates.size() ? size.rates[k] : 0.0;
        spec.seconds = slice_s;
        spec.limit_s = size.p99_limit_ms / 1e3;
        const bool sampled = k == size.latency_rate || spec.rate <= 0;
        latency.clear();
        lag.clear();
        StormPhase ph = RunPhase(pool, spec, &cursor, rig.get(),
                                 pass == 1 ? run->tracer : nullptr, run,
                                 sampled ? &latency : nullptr,
                                 sampled ? &lag : nullptr);
        if (sampled) {
          ph.samples = latency.size();
          ph.p50_ms = 1e3 * Percentile(latency, 50);
          ph.p99_ms = 1e3 * Percentile(latency, 99);
          ph.lag_p99_ms = 1e3 * Percentile(lag, 99);
        }
        run->attempted += ph.frames;
        slices[pass][k].push_back(ph);
      }
    }
    const int probes_due = size.recovery_reps * (cycle + 1) / cycles;
    for (; probes_done < probes_due; ++probes_done) {
      double s = 0;
      const Status st =
          TimeReconnect(pool, static_cast<size_t>(probes_done) % conns,
                        &conn_cursor, rig.get(), &s);
      ++run->attempted;
      if (!st.ok()) {
        ++run->failed;
        std::fprintf(stderr, "storm reconnect: %s\n", st.ToString().c_str());
      } else {
        recovery_s.push_back(s);
      }
    }
  }
  // A phase's figures over its slices (of equal length). Rates, fractions
  // and the median latency are trimmed means (the lowest and highest 10%
  // dropped): the kernel's loopback handling switches between a fast and a
  // slow regime from one slice to the next, and the trimmed mean follows
  // the share of each without letting one slice's hiccup make the run's
  // figure. Tail latencies are medians of the slices' p99: a host stall of
  // a millisecond already owns a slice's p99, and some slices have one.
  constexpr double kTrim = 0.1;
  std::vector<std::vector<StormPhase>> results(passes);
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t k = 0; k < phases; ++k) {
      const std::vector<StormPhase>& parts = slices[pass][k];
      StormPhase out = parts.front();
      out.frames = 0;
      out.samples = 0;
      std::vector<double> fps, over, unsent, p50, p99, lag_p99;
      for (const StormPhase& part : parts) {
        out.frames += part.frames;
        out.samples += part.samples;
        fps.push_back(part.drained_fps);
        over.push_back(part.over_limit_frac);
        unsent.push_back(static_cast<double>(part.unsent));
        p50.push_back(part.p50_ms);
        p99.push_back(part.p99_ms);
        lag_p99.push_back(part.lag_p99_ms);
      }
      out.drained_fps = TrimmedMean(fps, kTrim);
      out.over_limit_frac = TrimmedMean(over, kTrim);
      out.unsent = static_cast<uint64_t>(TrimmedMean(unsent, kTrim));
      out.p50_ms = TrimmedMean(p50, kTrim);
      out.p99_ms = Median(p99);
      out.lag_p99_ms = Median(lag_p99);
      out.meets_limit = out.offered_fps > 0 && out.over_limit_frac <= 0.01 &&
                        static_cast<double>(out.unsent) <=
                            out.offered_fps * size.p99_limit_ms / 1e3;
      results[pass].push_back(out);
    }
  }

  // Output checks: the socket byte stream equals the in-process replay of
  // the same frames, and the validating listener rejected nothing.
  StormEvidence ev;
  for (const Fingerprint& fp : rig->drained_fp) ev.socket.push_back(fp.hash);
  ev.replay = ReplayInProcess(pool, *rig);
  ev.rejected = rig->listener->frames_rejected();
  ev.sent = rig->sent_frames;
  ev.drained = rig->drained_frames;
  run->checks.Expect(StormMatches(ev),
                     "socket byte stream equals the in-process replay, every "
                     "frame drained, no listener rejects");
  run->failed += ev.rejected;
  if (evidence != nullptr) *evidence = ev;

  const std::vector<StormPhase>& base = results[0];
  const StormPhase& reference = base[size.latency_rate];
  const StormPhase& capacity = base.back();
  double max_rate = 0;
  for (const StormPhase& ph : base) {
    if (ph.meets_limit) max_rate = std::max(max_rate, ph.drained_fps);
  }
  for (const StormPhase& ph : base) {
    const std::string key =
        ph.offered_fps > 0
            ? "rate_" + std::to_string(static_cast<long long>(ph.offered_fps))
            : std::string("closed_loop");
    run->info.Set(key + ".drained_fps", ph.drained_fps, "1/s");
    run->info.Set(key + ".over_limit_frac", ph.over_limit_frac, "frac");
    run->info.Set(key + ".unsent", static_cast<double>(ph.unsent), "count");
    run->info.Set(key + ".meets_limit", ph.meets_limit ? 1 : 0, "bool");
  }
  run->info.Set("ingest_p50_ms", reference.p50_ms, "ms");
  run->info.Set("ingest_p99_ms", reference.p99_ms, "ms");
  run->info.Set("max_rate_fps", max_rate, "1/s");
  run->info.Set("conns", static_cast<double>(conns), "count");

  if (!args.trace) {
    // The step is one frame of the closed loop: there a host stall delays
    // only the frames in flight, while in the open loop it delays every
    // frame due during it and sets the tail. The open-loop figures are the
    // ingest_* info lines.
    //
    // The closed loop runs each slice in the fast or the slow loopback
    // regime. Every run has slow slices, but the share of fast ones follows
    // the host, from almost none to two thirds of a run, and moved the
    // trimmed means by over 25% between sets of runs half an hour apart.
    // The figures are therefore the slow regime's level: the 10th
    // percentile of the slices' rates, the 90th of their medians and the
    // 75th of their p99 (host stalls set the p99 of more than a tenth of
    // the slices in some runs).
    std::vector<double> fps, p50, p99;
    for (const StormPhase& part : slices[0].back()) {
      fps.push_back(part.drained_fps);
      p50.push_back(part.p50_ms);
      p99.push_back(part.p99_ms);
    }
    Report& m = run->metrics;
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("steps_per_s", Percentile(fps, 10), "1/s");
    m.Set("step_p50_ms", Percentile(p50, 90), "ms");
    m.Set("step_p99_ms", Percentile(p99, 75), "ms");
    m.Set("recovery_ms", 1e3 * Median(recovery_s), "ms");
    run->info.Set("step_samples", static_cast<double>(capacity.samples),
                  "count");
    return;
  }

  const Tracer& tr = *run->tracer;
  uint64_t depth_max = 0;
  for (const auto& ch : rig->channels) {
    depth_max = std::max<uint64_t>(depth_max, ch->max_depth());
  }
  uint64_t retries = 0;
  for (const SocketSender& s : rig->senders) retries += s.reconnect_attempts();
  Report& m = run->metrics;
  m.Set("net.listener_poll_s", tr.SelfSeconds("SocketListener::Poll"), "s");
  m.Set("net.sender_flush_s", tr.SelfSeconds("SocketSender::Flush"), "s");
  m.Set("net.frames_rejected",
        static_cast<double>(rig->listener->frames_rejected()), "count");
  m.Set("net.sender_retries", static_cast<double>(retries), "count");
  m.Set("net.channel_depth_max", static_cast<double>(depth_max), "count");
  m.Set("net.generator_lag_ms", results[1][size.latency_rate].lag_p99_ms,
        "ms");
  m.Set("net.max_rate_fps", max_rate, "1/s");
  m.Set("trace.overhead_frac",
        capacity.drained_fps / std::max(1.0, results[1].back().drained_fps) -
            1.0,
        "frac");
}

}  // namespace perfbench

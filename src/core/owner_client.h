#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/engine.h"
#include "src/core/upload_policy.h"
#include "src/net/socket_transport.h"
#include "src/net/upload_channel.h"
#include "src/relational/growing_table.h"

namespace incshrink {

/// Share-randomness seed of owner `owner_index` (0 = T1, 1 = T2) of a
/// deployment rooted at `deployment_seed`: a splitmix64 substream of the
/// deployment seed, salted with the pre-transport engine's owner-rng
/// constant. Public and stable, so any driver (SynchronousDeployment over
/// either transport, a standalone process) reconstructs the same owners.
uint64_t DeriveOwnerShareSeed(uint64_t deployment_seed, int owner_index);

class CheckpointWriter;
class CheckpointReader;

/// \brief A standalone data owner: the client side of one upload channel.
///
/// Owns the record-synchronization policy state (OwnerUploader), the
/// owner-local share randomness, and the owner's logical clock — everything
/// that used to live fused inside Engine::Step. Each TryStep ingests one
/// step of logical arrivals, emits the policy-sized secret-shared batch,
/// serializes it into a wire frame (storage/serialization) and pushes it
/// onto the channel. The owner runs on its own clock: it may be stepped
/// ahead of the engine up to the channel capacity.
///
/// Every owner step pushes exactly one frame — a policy step that uploads
/// nothing still sends a zero-row frame (the frame's presence is the clock
/// tick; its *size* is the DP-protected observable), and the frame carries
/// this step's plaintext arrivals for evaluation-side ground truth.
class OwnerClient {
 public:
  /// \param fixed_rows   C_r of the fixed-size policy
  /// \param is_public    public relations upload unpadded, every step
  /// \param policy_seed  seed of the DP policy noise (matches the
  ///                     pre-transport engine: config.seed + 101 / + 202)
  /// \param share_seed   seed of the owner's sharing randomness
  /// \param channel      non-owning; must outlive the client
  OwnerClient(const UploadPolicyConfig& policy, uint32_t fixed_rows,
              bool is_public, uint64_t policy_seed, uint64_t share_seed,
              UploadChannel* channel);

  /// Advances the owner clock by one step with these arrivals and pushes
  /// the resulting frame. Returns false — with the clock, queue and RNG
  /// state untouched — when the channel refuses the frame (public
  /// backpressure); the caller re-offers the same arrivals later.
  bool TryStep(const std::vector<LogicalRecord>& arrivals);

  uint64_t clock() const { return t_; }
  /// Records received but not yet uploaded (DP-Sync's Theorem-15 logical
  /// gap) — the owner-side component of the composed error bound.
  uint64_t pending() const { return uploader_.pending(); }
  double PolicyEpsilon() const { return uploader_.PolicyEpsilon(); }
  const OwnerUploader& uploader() const { return uploader_; }
  UploadChannel* channel() { return channel_; }

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t rows_sent() const { return rows_sent_; }

  /// Checkpoint support: serializes the owner's full resumable state — the
  /// policy uploader, the share-randomness cursor, the logical clock and
  /// the lifetime counters. The channel backlog is engine-side state and is
  /// captured by Engine::SaveCheckpoint.
  void SaveTo(CheckpointWriter* writer) const;
  /// Restores the state saved by SaveTo into a client constructed with the
  /// same config/seeds; fails closed on malformed input.
  Status RestoreFrom(CheckpointReader* reader);

 private:
  OwnerUploader uploader_;
  Rng share_rng_;
  UploadChannel* channel_;
  uint64_t t_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t rows_sent_ = 0;
};

/// Knobs of SynchronousDeployment's loopback-TCP transport (timeout
/// plumbing only: none of them can change what a deployment computes).
struct LoopbackOptions {
  /// Each poll sweep waits at most 1 ms for bytes.
  SocketListenerOptions listener{.poll_timeout_ms = 1};
  SocketSenderOptions sender;
  /// Poll sweeps Step() waits for a frame pair before giving up (with
  /// listener.poll_timeout_ms = 1 the default bounds a hung owner at
  /// ~10 s).
  uint32_t max_wait_polls = 10000;
};

/// \brief One full deployment — the engine, its two owners and the
/// transport between them — and the only deployment driver: standalone
/// runs, the loopback-TCP transport and every fleet tenant go through it.
///
/// Two transports, chosen at construction:
///
///  * in-process (the `(config)` constructor): owners push straight into
///    the engine's inbound channels;
///  * loopback TCP (`OverLoopback`): owners push into local outbound
///    channels, and a private wire moves each frame through a SocketSender
///    and a SocketListener bound to an ephemeral loopback port into the
///    engine's channels.
///
/// Owner steps go through one `TryOwnerStep`; `Step` is TryOwnerStep, then
/// delivery (a no-op in-process; over TCP, pump and poll until the engine
/// channels hold the pair), then one engine step, so every frame is drained
/// the step it is produced. Because the socket path preserves per-owner
/// frame order and content exactly, both transports are bit-identical —
/// summaries, transcripts and snapshot bytes — and reproduce the fused
/// pre-transport `Engine::Step(new1, new2)` bit for bit (the golden suite
/// and tests/socket_transport_test.cc pin this). The fleet holds one
/// in-process deployment per tenant and steps owners ahead of the engine
/// through the same TryOwnerStep.
class SynchronousDeployment {
 public:
  /// An in-process deployment.
  explicit SynchronousDeployment(const IncShrinkConfig& config);
  /// A deployment over loopback TCP: binds the listener on an ephemeral
  /// port and dials the owners (T2 only for join views).
  static Result<std::unique_ptr<SynchronousDeployment>> OverLoopback(
      const IncShrinkConfig& config,
      const LoopbackOptions& options = LoopbackOptions());
  ~SynchronousDeployment();

  SynchronousDeployment(const SynchronousDeployment&) = delete;
  SynchronousDeployment& operator=(const SynchronousDeployment&) = delete;

  /// Ticks owner 1 with `new1` and owner 2 with `new2` (join views only) as
  /// one atomic pair. Returns false, touching nothing but the public
  /// backpressure counter, when owner 1's channel refuses the frame; the
  /// channels hold equal depths, so owner 2's push then cannot fail.
  bool TryOwnerStep(const std::vector<LogicalRecord>& new1,
                    const std::vector<LogicalRecord>& new2);

  /// TryOwnerStep, delivery, then the engine once. Lockstep leaves every
  /// channel empty between steps, so the owner pair is never refused.
  Status Step(const std::vector<LogicalRecord>& new1,
              const std::vector<LogicalRecord>& new2);

  /// Runs `Step` over aligned per-step arrival vectors.
  Status Run(const std::vector<std::vector<LogicalRecord>>& arrivals1,
             const std::vector<std::vector<LogicalRecord>>& arrivals2);

  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  OwnerClient& owner1() { return owner1_; }
  OwnerClient& owner2() { return owner2_; }
  const OwnerClient& owner1() const { return owner1_; }
  const OwnerClient& owner2() const { return owner2_; }
  /// The loopback transport's listener; nullptr in-process.
  const SocketListener* listener() const;

  // Forwarders for the most common post-run reads, so driver code can treat
  // a deployment like the old fused engine.
  RunSummary Summary() const { return engine_.Summary(); }
  const std::vector<StepMetrics>& step_metrics() const {
    return engine_.step_metrics();
  }
  const Transcript& transcript() const { return engine_.transcript(); }

  /// Serializes the whole deployment — engine (with channel backlogs) and
  /// both owners — into one ICKP snapshot. Fails between-steps only
  /// (engine-side precondition) and respects config.checkpoint_max_bytes.
  /// The bytes do not depend on the transport: lockstep leaves the wire
  /// drained between steps, so a snapshot restores into either one.
  Result<std::vector<uint8_t>> SaveCheckpoint();
  /// Restores a SaveCheckpoint blob into this deployment, which must have
  /// been constructed with the identical config (fingerprint-checked).
  /// Atomic: on any error the deployment is left in its prior state, except
  /// that a torn engine/owner mismatch can only arise from distinct blobs —
  /// within one valid blob all parts restore or none do.
  Status RestoreCheckpoint(const std::vector<uint8_t>& snapshot);

  /// The snapshot-section codec behind SaveCheckpoint and the fleet's
  /// tenant blobs: writes the ENG (the engine's self-validating blob),
  /// OWN1 and OWN2 sections. Callers write their own leading sections
  /// first and Finish the writer afterwards.
  Status WriteStateSections(CheckpointWriter* writer);
  /// Reads the sections WriteStateSections wrote — the last ones of the
  /// blob, so this also Finishes the reader — dry-running the owners into
  /// scratch clients before committing engine and owners. On error nothing
  /// has changed.
  Status RestoreStateSections(CheckpointReader* reader);

 private:
  class LoopbackWire;

  SynchronousDeployment(const IncShrinkConfig& config,
                        const LoopbackOptions* loopback);

  Engine engine_;
  std::unique_ptr<LoopbackWire> wire_;  ///< null = in-process
  OwnerClient owner1_;
  OwnerClient owner2_;
};

/// Constructs the two owner clients of `config` against `channel` with the
/// canonical seed derivation, so every transport drives identical owners.
OwnerClient MakeOwner1(const IncShrinkConfig& config, UploadChannel* channel);
OwnerClient MakeOwner2(const IncShrinkConfig& config, UploadChannel* channel);

}  // namespace incshrink

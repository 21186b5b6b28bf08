#include "src/core/owner_client.h"

#include "src/common/logging.h"
#include "src/storage/checkpoint.h"
#include "src/storage/serialization.h"

namespace incshrink {

uint64_t DeriveOwnerShareSeed(uint64_t deployment_seed, int owner_index) {
  // Splitmix64 scramble of (deployment seed, owner index), salted with the
  // pre-transport engine's owner-rng constant so the streams stay disjoint
  // from the tenant/shard/replica derivations.
  uint64_t z = (deployment_seed ^ 0xD1B54A32D192ED03ull) +
               0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(owner_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

OwnerClient::OwnerClient(const UploadPolicyConfig& policy, uint32_t fixed_rows,
                         bool is_public, uint64_t policy_seed,
                         uint64_t share_seed, UploadChannel* channel)
    : uploader_(policy, fixed_rows, is_public, policy_seed),
      share_rng_(share_seed),
      channel_(channel) {
  INCSHRINK_CHECK(channel_ != nullptr);
}

bool OwnerClient::TryStep(const std::vector<LogicalRecord>& arrivals) {
  // Refuse before touching any state: a backpressured step must be
  // re-offerable later with identical results (clock, queue and RNG draws
  // all untouched). Capacity was checked, so the push below cannot fail.
  if (channel_->full()) {
    channel_->NoteBackpressure();
    return false;
  }
  ++t_;
  UploadFrame frame;
  frame.owner_step = t_;
  frame.arrivals = arrivals;
  frame.batch = uploader_.BuildBatch(t_, arrivals, &share_rng_);
  ++frames_sent_;
  rows_sent_ += frame.batch.size();
  INCSHRINK_CHECK(channel_->TryPush(EncodeUploadFrame(frame)));
  return true;
}

void OwnerClient::SaveTo(CheckpointWriter* writer) const {
  uploader_.SaveTo(writer);
  writer->WriteRng(share_rng_.ExportState());
  writer->U64(t_);
  writer->U64(frames_sent_);
  writer->U64(rows_sent_);
}

Status OwnerClient::RestoreFrom(CheckpointReader* reader) {
  // The uploader restores first (it validates its own shape) but commits
  // into itself, so a later failure here would tear the client. The scalar
  // reads below can only fail through the reader's ok flag, which the
  // deployment's dry-run pass has already cleared — still, check it before
  // committing the scalars so a standalone caller stays safe.
  INCSHRINK_RETURN_NOT_OK(uploader_.RestoreFrom(reader));
  const RngState share_state = reader->ReadRng();
  const uint64_t t = reader->U64();
  const uint64_t frames_sent = reader->U64();
  const uint64_t rows_sent = reader->U64();
  INCSHRINK_RETURN_NOT_OK(reader->ExpectOk("owner client state"));
  share_rng_.RestoreState(share_state);
  t_ = t;
  frames_sent_ = frames_sent;
  rows_sent_ = rows_sent;
  return Status::OK();
}

OwnerClient MakeOwner1(const IncShrinkConfig& config, UploadChannel* channel) {
  // Policy seeds match the pre-transport engine (config.seed + 101 / + 202)
  // so the DP-released batch-size sequences are unchanged.
  return OwnerClient(config.upload_policy1, config.upload_rows_t1,
                     /*is_public=*/false, config.seed + 101,
                     DeriveOwnerShareSeed(config.seed, 0), channel);
}

OwnerClient MakeOwner2(const IncShrinkConfig& config, UploadChannel* channel) {
  return OwnerClient(config.upload_policy2, config.upload_rows_t2,
                     config.t2_is_public, config.seed + 202,
                     DeriveOwnerShareSeed(config.seed, 1), channel);
}

// The loopback transport: owners push into local outbound channels, and
// Deliver moves each frame over real TCP into the engine's channels.
class SynchronousDeployment::LoopbackWire {
 public:
  LoopbackWire(Engine* engine, const LoopbackOptions& options)
      : engine_(engine),
        outbound_{UploadChannel(engine->config().upload_channel_capacity),
                  UploadChannel(engine->config().upload_channel_capacity)},
        listener_({engine->channel1(), engine->channel2()}, options.listener),
        senders_{SocketSender(options.sender), SocketSender(options.sender)},
        max_wait_polls_(options.max_wait_polls) {}

  UploadChannel* outbound(int owner_index) { return &outbound_[owner_index]; }
  const SocketListener& listener() const { return listener_; }

  /// Binds the listener and dials the owners; a filter view has no T2 link.
  Status Connect() {
    INCSHRINK_RETURN_NOT_OK(listener_.Bind(0));
    for (uint32_t k = 0; k < links(); ++k) {
      INCSHRINK_RETURN_NOT_OK(
          senders_[k].Connect("127.0.0.1", listener_.port(), k));
    }
    return Status::OK();
  }

  /// Pumps and polls until the engine channels hold every frame the owners
  /// have sent, bounded by max_wait_polls sweeps.
  Status Deliver(const OwnerClient& owner1, const OwnerClient& owner2) {
    for (uint32_t i = 0;; ++i) {
      for (uint32_t k = 0; k < links(); ++k) {
        INCSHRINK_RETURN_NOT_OK(Pump(k));
      }
      listener_.Poll();
      if (engine_->channel1()->frames_pushed() == owner1.frames_sent() &&
          (links() == 1 ||
           engine_->channel2()->frames_pushed() == owner2.frames_sent())) {
        return Status::OK();
      }
      if (i >= max_wait_polls_) {
        return Status::Internal("upload frames never arrived (wire stalled)");
      }
    }
  }

 private:
  uint32_t links() const {
    return engine_->config().view_kind == ViewKind::kFilter ? 1 : 2;
  }

  // Moves frames outbound channel -> sender -> kernel as far as the socket
  // allows without blocking, keeping at most one frame in the sender.
  Status Pump(uint32_t k) {
    for (;;) {
      INCSHRINK_RETURN_NOT_OK(senders_[k].Flush().status());
      if (!senders_[k].fully_flushed()) return Status::OK();  // kernel full
      std::vector<uint8_t> frame;
      if (!outbound_[k].TryPop(&frame)) return Status::OK();
      INCSHRINK_RETURN_NOT_OK(senders_[k].QueueFrame(frame));
    }
  }

  Engine* engine_;
  UploadChannel outbound_[2];
  SocketListener listener_;
  SocketSender senders_[2];
  uint32_t max_wait_polls_;
};

SynchronousDeployment::SynchronousDeployment(const IncShrinkConfig& config)
    : SynchronousDeployment(config, nullptr) {}

SynchronousDeployment::SynchronousDeployment(const IncShrinkConfig& config,
                                             const LoopbackOptions* loopback)
    : engine_(config),
      wire_(loopback ? std::make_unique<LoopbackWire>(&engine_, *loopback)
                     : nullptr),
      owner1_(MakeOwner1(config,
                         wire_ ? wire_->outbound(0) : engine_.channel1())),
      owner2_(MakeOwner2(config,
                         wire_ ? wire_->outbound(1) : engine_.channel2())) {}

SynchronousDeployment::~SynchronousDeployment() = default;

Result<std::unique_ptr<SynchronousDeployment>>
SynchronousDeployment::OverLoopback(const IncShrinkConfig& config,
                                    const LoopbackOptions& options) {
  // No make_unique: the constructor is private.
  std::unique_ptr<SynchronousDeployment> deployment(
      new SynchronousDeployment(config, &options));
  INCSHRINK_RETURN_NOT_OK(deployment->wire_->Connect());
  return deployment;
}

const SocketListener* SynchronousDeployment::listener() const {
  return wire_ ? &wire_->listener() : nullptr;
}

bool SynchronousDeployment::TryOwnerStep(
    const std::vector<LogicalRecord>& new1,
    const std::vector<LogicalRecord>& new2) {
  // T1 leads the pair: its refusal is the recorded backpressure event. The
  // channels always hold equal depths (frames are pushed and drained
  // strictly in pairs), so if T1's push lands, T2's must too.
  if (!owner1_.TryStep(new1)) return false;
  if (engine_.config().view_kind != ViewKind::kFilter) {
    INCSHRINK_CHECK(owner2_.TryStep(new2));
  }
  return true;
}

Status SynchronousDeployment::Step(const std::vector<LogicalRecord>& new1,
                                   const std::vector<LogicalRecord>& new2) {
  if (!TryOwnerStep(new1, new2)) {
    return Status::Internal("lockstep owner frame refused (channel full)");
  }
  if (wire_) INCSHRINK_RETURN_NOT_OK(wire_->Deliver(owner1_, owner2_));
  return engine_.Step();
}

namespace {

// Outer ICKP layout of a whole deployment: fingerprint, then the state
// sections — the engine's own (self-validating) snapshot blob and the two
// owners.
constexpr uint32_t kTagDeployFingerprint = CheckpointTag('D', 'F', 'G', ' ');
constexpr uint32_t kTagEngineBlob = CheckpointTag('E', 'N', 'G', ' ');
constexpr uint32_t kTagOwner1 = CheckpointTag('O', 'W', 'N', '1');
constexpr uint32_t kTagOwner2 = CheckpointTag('O', 'W', 'N', '2');

}  // namespace

Status SynchronousDeployment::WriteStateSections(CheckpointWriter* w) {
  INCSHRINK_ASSIGN_OR_RETURN(const std::vector<uint8_t> engine_blob,
                             engine_.SaveCheckpoint());
  w->BeginSection(kTagEngineBlob);
  w->Bytes(engine_blob);
  w->EndSection();
  w->BeginSection(kTagOwner1);
  owner1_.SaveTo(w);
  w->EndSection();
  w->BeginSection(kTagOwner2);
  owner2_.SaveTo(w);
  w->EndSection();
  return Status::OK();
}

Status SynchronousDeployment::RestoreStateSections(CheckpointReader* r) {
  r->BeginSection(kTagEngineBlob);
  const std::vector<uint8_t> engine_blob = r->Bytes();
  r->EndSection();
  INCSHRINK_RETURN_NOT_OK(r->ExpectOk("embedded engine snapshot"));

  // Dry-run pass: the owner sections restore into freshly constructed
  // scratch clients first (their constructors draw nothing shared with the
  // engine), bound to the live owners' channels so either transport
  // restores, and every fallible decode happens before any live object
  // changes. The engine restore is atomic on its own, and the final owner
  // commit is a pair of moves that cannot fail — the deployment restores
  // all-or-nothing.
  OwnerClient scratch1 = MakeOwner1(engine_.config(), owner1_.channel());
  OwnerClient scratch2 = MakeOwner2(engine_.config(), owner2_.channel());
  r->BeginSection(kTagOwner1);
  INCSHRINK_RETURN_NOT_OK(scratch1.RestoreFrom(r));
  r->EndSection();
  r->BeginSection(kTagOwner2);
  INCSHRINK_RETURN_NOT_OK(scratch2.RestoreFrom(r));
  r->EndSection();
  INCSHRINK_RETURN_NOT_OK(r->Finish());

  INCSHRINK_RETURN_NOT_OK(engine_.RestoreCheckpoint(engine_blob));
  owner1_ = std::move(scratch1);
  owner2_ = std::move(scratch2);
  return Status::OK();
}

Result<std::vector<uint8_t>> SynchronousDeployment::SaveCheckpoint() {
  CheckpointWriter w;
  w.BeginSection(kTagDeployFingerprint);
  w.U64(ConfigFingerprint(engine_.config()));
  w.EndSection();
  INCSHRINK_RETURN_NOT_OK(WriteStateSections(&w));
  std::vector<uint8_t> blob = w.Finish();
  if (blob.size() > engine_.config().checkpoint_max_bytes) {
    return Status::OutOfRange(
        "deployment snapshot exceeds checkpoint_max_bytes");
  }
  return blob;
}

Status SynchronousDeployment::RestoreCheckpoint(
    const std::vector<uint8_t>& snapshot) {
  INCSHRINK_ASSIGN_OR_RETURN(CheckpointReader r,
                             CheckpointReader::Open(snapshot));
  r.BeginSection(kTagDeployFingerprint);
  const uint64_t fingerprint = r.U64();
  r.EndSection();
  INCSHRINK_RETURN_NOT_OK(r.ExpectOk("deployment fingerprint"));
  if (fingerprint != ConfigFingerprint(engine_.config())) {
    return Status::FailedPrecondition(
        "snapshot was taken under a different configuration");
  }
  return RestoreStateSections(&r);
}

Status SynchronousDeployment::Run(
    const std::vector<std::vector<LogicalRecord>>& arrivals1,
    const std::vector<std::vector<LogicalRecord>>& arrivals2) {
  INCSHRINK_CHECK_EQ(arrivals1.size(), arrivals2.size());
  for (size_t i = 0; i < arrivals1.size(); ++i) {
    INCSHRINK_RETURN_NOT_OK(Step(arrivals1[i], arrivals2[i]));
  }
  return Status::OK();
}

}  // namespace incshrink

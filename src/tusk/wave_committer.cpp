#include "src/tusk/wave_committer.h"

#include <algorithm>
#include <string_view>
#include <unordered_set>

namespace nt {

WaveCommitter::WaveCommitter(Primary* primary, const Committee& committee,
                             std::optional<Round> gc_depth, CounterNames counters)
    : primary_(primary),
      committee_(committee),
      gc_depth_(gc_depth),
      counters_(counters),
      log_(primary) {
  primary_->add_on_certificate([this](const Certificate& cert) { OnCertificate(cert); });
  primary_->add_on_header_stored([this](const Digest& digest) { OnHeaderStored(digest); });
}

void WaveCommitter::add_on_commit(std::function<void(const Committed&)> hook) {
  log_.add_hook([this, hook = std::move(hook)](const Digest& digest,
                                               const std::shared_ptr<const BlockHeader>& header) {
    hook(Committed{digest, header, delivering_wave_, delivering_anchor_round_});
  });
}

// ---------------------------------------------------------------- persistence

namespace {
// The 'U' meta record: the wave cursor, then the rule's own state. The
// delivered headers' 'T' records are the commit log's.
Digest MetaKey() { return Sha256::Hash(std::string_view("wave/meta")); }
}  // namespace

void WaveCommitter::PersistMeta() {
  Store* store = log_.store();
  if (store == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('U');
  w.PutU64(last_committed_wave_);
  SaveState(w);
  store->Put(MetaKey(), w.Take());
  store->Sync();
}

void WaveCommitter::Recover() {
  if (log_.store() == nullptr) {
    return;
  }
  log_.store()->ForEach([&](const Digest&, const Bytes& value) {
    if (value.empty() || value[0] != 'U') {
      return;
    }
    Reader r(value.data() + 1, value.size() - 1);
    last_committed_wave_ = r.GetU64();
    LoadState(r);
  });
  last_skip_counted_ = last_committed_wave_;
  log_.Recover();
}

// ---------------------------------------------------------------- commit rule

uint32_t WaveCommitter::DirectVotes(Round round, const Digest& anchor) const {
  const Dag& dag = primary_->dag();
  uint32_t votes = 0;
  for (const auto& [author, cert] : dag.CertsAt(round)) {
    auto header = dag.GetHeader(cert.header_digest);
    if (header == nullptr) {
      continue;
    }
    for (const Certificate& parent : header->parents) {
      if (parent.header_digest == anchor) {
        ++votes;
        break;
      }
    }
  }
  return votes;
}

const Certificate* WaveCommitter::AnchorCert(uint64_t wave) const {
  return primary_->dag().GetCert(AnchorRound(wave), AnchorAuthor(wave));
}

void WaveCommitter::TryCommit() {
  const Round top = primary_->dag().HighestRound();
  for (uint64_t wave = last_committed_wave_ + 1; DecisionRound(wave) <= top; ++wave) {
    if (!Decidable(wave)) {
      break;
    }
    const Certificate* anchor = AnchorCert(wave);
    if (anchor == nullptr || IsCommitted(anchor->header_digest)) {
      continue;  // No anchor block in our view: wave yields nothing directly.
    }
    if (!Supported(wave, *anchor)) {
      if (wave > last_skip_counted_) {  // Count each wave's skip once.
        ++skipped_anchors_;
        last_skip_counted_ = wave;
        NT_TRACE(tracer_, IncrCounter(counters_.skipped_anchors));
      }
      continue;  // Insufficient support; a later wave may order it by path.
    }
    if (!CommitChain(wave, *anchor)) {
      break;  // Deferred on missing headers; retried via OnHeaderStored.
    }
  }
}

bool WaveCommitter::CommitChain(uint64_t wave, const Certificate& anchor) {
  const Dag& dag = primary_->dag();

  // The anchor's entire causal history must be local before the walk below:
  // HasPath must not mistake a missing header for a missing path, or we
  // could skip an anchor another validator committed.
  if (!log_.Complete(dag.CollectCausalHistory(anchor.header_digest, log_.delivered()))) {
    return false;
  }

  // Walk back through skipped waves: order any earlier anchor that the
  // current candidate can reach (it may have been committed by others).
  // Author lookups here see the rule's state from before this commit event;
  // OnWavesSettled runs only after delivery.
  std::vector<const Certificate*> chain{&anchor};
  const Certificate* candidate = &anchor;
  for (uint64_t i = wave - 1; i > last_committed_wave_ && i > 0; --i) {
    const Certificate* earlier = AnchorCert(i);
    if (earlier == nullptr || IsCommitted(earlier->header_digest)) {
      continue;
    }
    if (dag.HasPath(candidate->header_digest, earlier->header_digest)) {
      chain.push_back(earlier);
      candidate = earlier;
    }
  }
  std::reverse(chain.begin(), chain.end());

  // First pass: linearize every anchor's history against what the earlier
  // anchors of the chain will already have delivered.
  std::unordered_set<Digest, DigestHash> virtual_committed = log_.delivered();
  std::vector<std::pair<const Certificate*, Dag::History>> histories;
  for (const Certificate* link : chain) {
    Dag::History history = dag.CollectCausalHistory(link->header_digest, virtual_committed);
    if (!log_.Complete(history)) {
      return false;
    }
    virtual_committed.insert(history.ordered.begin(), history.ordered.end());
    histories.emplace_back(link, std::move(history));
  }

  // Second pass: deliver.
  delivering_wave_ = wave;
  for (auto& [link, history] : histories) {
    delivering_anchor_round_ = link->round;
    for (const Digest& digest : history.ordered) {
      log_.Deliver(digest);
    }
  }
  OnWavesSettled(last_committed_wave_, wave);
  last_committed_wave_ = wave;
  PersistMeta();
  NT_TRACE(tracer_, IncrCounter(counters_.committed_waves));

  // Advance the garbage-collection horizon relative to the last committed
  // anchor round (paper §3.3).
  Round anchor_round = AnchorRound(wave);
  if (gc_depth_.has_value() && anchor_round > *gc_depth_) {
    log_.Prune(anchor_round - *gc_depth_);
  }
  return true;
}

}  // namespace nt

#include "src/tusk/wave_committer.h"

#include <algorithm>
#include <string_view>

namespace nt {

WaveCommitter::WaveCommitter(Primary* primary, const Committee& committee,
                             std::optional<Round> gc_depth, CounterNames counters)
    : primary_(primary), committee_(committee), gc_depth_(gc_depth), counters_(counters) {
  primary_->add_on_certificate([this](const Certificate& cert) { OnCertificate(cert); });
  primary_->add_on_header_stored([this](const Digest& digest) { OnHeaderStored(digest); });
}

// ---------------------------------------------------------------- persistence

namespace {
// Consensus-store records: 'T' commit entries (one per delivered header),
// 'U' meta (wave cursor, then the rule's own state). A validator runs one
// consensus, so its store holds one committer's records next to nothing
// else with these tags.
Digest CommitKey(const Digest& digest) {
  Writer w;
  w.PutU8('T');
  w.PutRaw(digest);
  return Sha256::Hash(w.bytes().data(), w.size());
}
Digest MetaKey() { return Sha256::Hash(std::string_view("wave/meta")); }
}  // namespace

void WaveCommitter::PersistCommit(const Digest& digest, Round round) {
  if (store_ == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('T');
  w.PutU64(round);
  w.PutRaw(digest);
  store_->Put(CommitKey(digest), w.Take());
}

void WaveCommitter::PersistMeta() {
  if (store_ == nullptr) {
    return;
  }
  Writer w;
  w.PutU8('U');
  w.PutU64(last_committed_wave_);
  SaveState(w);
  store_->Put(MetaKey(), w.Take());
  store_->Sync();
}

void WaveCommitter::Recover() {
  if (store_ == nullptr) {
    return;
  }
  const Round gc_round = primary_->dag().gc_round();
  store_->ForEach([&](const Digest&, const Bytes& value) {
    if (value.empty()) {
      return;
    }
    Reader r(value.data() + 1, value.size() - 1);
    switch (value[0]) {
      case 'T': {
        Round round = static_cast<Round>(r.GetU64());
        Digest digest = r.GetArray<32>();
        if (!r.ok() || round < gc_round) {
          break;
        }
        if (committed_.insert(digest).second) {
          committed_by_round_[round].push_back(digest);
          ++committed_count_;
        }
        break;
      }
      case 'U':
        last_committed_wave_ = r.GetU64();
        LoadState(r);
        break;
      default:
        break;
    }
  });
  last_skip_counted_ = last_committed_wave_;
  // Refresh the primary's commit bookkeeping (committed batches, own-header
  // re-injection) for committed headers the recovered DAG still holds; the
  // crash-restart must not cause committed payload to be re-injected.
  for (const Digest& digest : committed_) {
    auto header = primary_->dag().GetHeader(digest);
    if (header != nullptr) {
      primary_->NotifyCommitted(*header);
    }
  }
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

bool WaveCommitter::Complete(const Dag::History& history) {
  for (const Digest& missing : history.missing) {
    primary_->SyncHeader(missing);
  }
  return history.missing.empty();
}

bool WaveCommitter::CommitChain(uint64_t wave, const Certificate& anchor) {
  const Dag& dag = primary_->dag();

  // The anchor's entire causal history must be local before the walk below:
  // HasPath must not mistake a missing header for a missing path, or we
  // could skip an anchor another validator committed.
  if (!Complete(dag.CollectCausalHistory(anchor.header_digest, committed_))) {
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
  std::set<Digest> virtual_committed = committed_;
  std::vector<std::pair<const Certificate*, Dag::History>> histories;
  for (const Certificate* link : chain) {
    Dag::History history = dag.CollectCausalHistory(link->header_digest, virtual_committed);
    if (!Complete(history)) {
      return false;
    }
    virtual_committed.insert(history.ordered.begin(), history.ordered.end());
    histories.emplace_back(link, std::move(history));
  }

  // Second pass: deliver.
  for (auto& [link, history] : histories) {
    for (const Digest& digest : history.ordered) {
      auto header = dag.GetHeader(digest);
      // Write-ahead: the commit record is durable before any hook (metrics,
      // executor, checker) observes the delivery.
      PersistCommit(digest, header->round);
      committed_.insert(digest);
      committed_by_round_[header->round].push_back(digest);
      ++committed_count_;
      primary_->NotifyCommitted(*header);
      if (!on_commit_hooks_.empty()) {
        Committed out;
        out.digest = digest;
        out.header = header;
        out.wave = wave;
        out.anchor_round = link->round;
        for (const auto& hook : on_commit_hooks_) {
          hook(out);
        }
      }
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
    Round gc_round = anchor_round - *gc_depth_;
    primary_->SetGcRound(gc_round);
    PruneCommitted(gc_round);
  }
  return true;
}

void WaveCommitter::PruneCommitted(Round gc_round) {
  for (auto it = committed_by_round_.begin();
       it != committed_by_round_.end() && it->first < gc_round;) {
    for (const Digest& d : it->second) {
      committed_.erase(d);
      if (store_ != nullptr) {
        store_->Erase(CommitKey(d));
      }
    }
    it = committed_by_round_.erase(it);
  }
}

}  // namespace nt

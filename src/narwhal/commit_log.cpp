#include "src/narwhal/commit_log.h"

#include "src/common/codec.h"

namespace nt {
namespace {
// Consensus-store key of a delivered header's 'T' record. A validator runs
// one consensus, so its store holds one log's records; the HotStuff core's
// tags ('W'/'L'/'E'/'F'/'Q'/'K'), the wave cursor ('U') and Narwhal-HS's
// queued anchors ('A') sit next to them.
Digest DeliveredKey(const Digest& digest) {
  Writer w;
  w.PutU8('T');
  w.PutRaw(digest);
  return Sha256::Hash(w.bytes().data(), w.size());
}
}  // namespace

void CommitLog::Insert(const Digest& digest, Round round) {
  if (delivered_.insert(digest).second) {
    delivered_by_round_[round].push_back(digest);
    ++delivered_count_;
  }
}

void CommitLog::Recover() {
  if (store_ == nullptr) {
    return;
  }
  const Round gc_round = primary_->dag().gc_round();
  store_->ForEach([&](const Digest&, const Bytes& value) {
    if (value.empty() || value[0] != 'T') {
      return;
    }
    Reader r(value.data() + 1, value.size() - 1);
    Round round = static_cast<Round>(r.GetU64());
    Digest digest = r.GetArray<32>();
    if (r.ok() && round >= gc_round) {
      Insert(digest, round);
    }
  });
  for (const auto& [round, digests] : delivered_by_round_) {
    for (const Digest& digest : digests) {
      auto header = primary_->dag().GetHeader(digest);
      if (header != nullptr) {
        primary_->NotifyCommitted(digest, *header);
      }
    }
  }
}

bool CommitLog::Complete(const Dag::History& history) {
  for (const Digest& missing : history.missing) {
    primary_->SyncHeader(missing);
  }
  return history.missing.empty();
}

void CommitLog::Deliver(const Digest& digest) {
  auto header = primary_->dag().GetHeader(digest);
  if (store_ != nullptr) {
    Writer w;
    w.PutU8('T');
    w.PutU64(header->round);
    w.PutRaw(digest);
    store_->Put(DeliveredKey(digest), w.Take());
  }
  Insert(digest, header->round);
  primary_->NotifyCommitted(digest, *header);
  for (const Hook& hook : hooks_) {
    hook(digest, header);
  }
}

void CommitLog::Prune(Round gc_round) {
  primary_->SetGcRound(gc_round);
  for (auto it = delivered_by_round_.begin();
       it != delivered_by_round_.end() && it->first < gc_round;) {
    for (const Digest& digest : it->second) {
      delivered_.erase(digest);
      if (store_ != nullptr) {
        store_->Erase(DeliveredKey(digest));
      }
    }
    it = delivered_by_round_.erase(it);
  }
}

}  // namespace nt

// The delivered-header log shared by every Narwhal-based consensus (Tusk,
// Bullshark and DAG-Rider through WaveCommitter, Narwhal-HS through
// NarwhalProvider): a committed certificate orders its uncommitted causal
// history (paper §3.2, §5), delivered here one header at a time.
//
// Delivery is write-ahead: a header's 'T' record is stored before the
// primary is notified or any hook runs, so a recovered validator never
// re-delivers, or re-injects the batches of, a header it delivered before
// the crash. GC follows the commits: Prune advances the primary's horizon
// and forgets the entries and records below it.
#ifndef SRC_NARWHAL_COMMIT_LOG_H_
#define SRC_NARWHAL_COMMIT_LOG_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/narwhal/primary.h"

namespace nt {

class CommitLog {
 public:
  // Fired once per delivered header, in delivery order: the same total order
  // on every correct validator. Hooks run in registration order.
  using Hook =
      std::function<void(const Digest& digest, const std::shared_ptr<const BlockHeader>& header)>;

  explicit CommitLog(Primary* primary) : primary_(primary) {}

  // The durable consensus store (non-owning; null = ephemeral).
  void set_store(Store* store) { store_ = store; }
  Store* store() const { return store_; }
  void add_hook(Hook hook) { hooks_.push_back(std::move(hook)); }

  // Restores the delivered set from the store, dropping records below the
  // primary's recovered GC horizon. Call after the primary's Recover(); it
  // delivers nothing, but re-notifies the primary of delivered headers the
  // DAG still holds so their batches are not re-injected.
  void Recover();

  // True if `history` is locally complete; otherwise requests every missing
  // header and returns false.
  bool Complete(const Dag::History& history);

  // Delivers the stored header `digest`: persists its record, notifies the
  // primary, then runs the hooks.
  void Deliver(const Digest& digest);

  // Advances the primary's GC horizon to `gc_round`, then forgets delivered
  // entries below it and erases their records.
  void Prune(Round gc_round);

  bool IsDelivered(const Digest& digest) const { return delivered_.count(digest) != 0; }
  const std::unordered_set<Digest, DigestHash>& delivered() const { return delivered_; }
  uint64_t delivered_count() const { return delivered_count_; }

 private:
  void Insert(const Digest& digest, Round round);

  Primary* primary_;
  Store* store_ = nullptr;
  // Membership only; delivered_by_round_ holds the same digests in order.
  std::unordered_set<Digest, DigestHash> delivered_;
  std::map<Round, std::vector<Digest>> delivered_by_round_;
  uint64_t delivered_count_ = 0;
  std::vector<Hook> hooks_;
};

}  // namespace nt

#endif  // SRC_NARWHAL_COMMIT_LOG_H_

// The commit machinery shared by the consensus protocols that interpret the
// local Narwhal DAG with zero extra messages: Tusk (paper §5), DAG-Rider
// (§8.2) and Bullshark (arXiv:2201.05677).
//
// The DAG is cut into waves, and each wave has one anchor: the certificate
// at the wave's anchor round by the author the rule picks. When the rule
// lets wave w be decided and the anchor has enough support, the anchor
// commits. Every earlier uncommitted anchor it reaches by a DAG path is
// ordered before it, walking back through skipped waves (Tusk's Lemma 1 and
// Bullshark's quorum-intersection argument make the walk agree across
// validators). Each anchor's causal history is then delivered in the
// deterministic linearization shared with Narwhal-HS.
//
// Nothing is decided on an incomplete history: missing headers are
// requested and the commit waits for them (the paper's "conservative
// synchronization"), so HasPath never mistakes a missing header for a
// missing path. Delivery, its durable records and their pruning are the
// shared CommitLog's (src/narwhal/commit_log.h); this class persists only
// the wave cursor and the rule's state ('U' meta record).
//
// A protocol subclass supplies only its rule: the anchor round and author
// of wave w, the round that decides w, whether w may be decided yet, the
// support check, and whether committing advances garbage collection.
#ifndef SRC_TUSK_WAVE_COMMITTER_H_
#define SRC_TUSK_WAVE_COMMITTER_H_

#include <functional>
#include <memory>
#include <optional>

#include "src/common/codec.h"
#include "src/narwhal/commit_log.h"

namespace nt {

class WaveCommitter {
 public:
  struct Committed {
    Digest digest{};
    std::shared_ptr<const BlockHeader> header;
    // The wave whose anchor chain delivered this header, and the round of
    // the anchor in whose causal history it was ordered.
    uint64_t wave = 0;
    Round anchor_round = 0;
  };

  virtual ~WaveCommitter() = default;
  WaveCommitter(const WaveCommitter&) = delete;
  WaveCommitter& operator=(const WaveCommitter&) = delete;

  // Registers a delivery callback: fired once per committed header, in total
  // order, through the commit log's hook list.
  void add_on_commit(std::function<void(const Committed&)> hook);

  // Attaches the durable consensus store (non-owning; null = ephemeral).
  void set_store(Store* store) { log_.set_store(store); }

  // Restores the commit log, the wave cursor and the rule's own state from
  // the store. Call after the primary's own Recover() and before hooks fire;
  // recovery itself delivers nothing.
  void Recover();

  // Re-evaluates the commit rule over the recovered DAG (post-rejoin
  // counterpart of the certificate hooks, which only fire on new arrivals).
  void Resume() { TryCommit(); }

  // Wired to the primary's hooks by the constructor.
  void OnCertificate(const Certificate&) { TryCommit(); }
  void OnHeaderStored(const Digest&) { TryCommit(); }

  // Attaches the cluster's tracer (counters only; per-header commit stamps
  // come from Primary::NotifyCommitted).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  CommitLog& log() { return log_; }
  uint64_t last_committed_wave() const { return last_committed_wave_; }
  uint64_t committed_headers() const { return log_.delivered_count(); }
  // Waves whose anchor was present but lacked support when first decided.
  uint64_t skipped_anchors() const { return skipped_anchors_; }

 protected:
  // Tracer counter names, e.g. {"tusk/committed_waves", "tusk/skipped_leaders"}.
  struct CounterNames {
    const char* committed_waves;
    const char* skipped_anchors;
  };

  // `gc_depth` = nullopt keeps every round: committing never advances the
  // garbage-collection horizon.
  WaveCommitter(Primary* primary, const Committee& committee, std::optional<Round> gc_depth,
                CounterNames counters);

  // ---- the rule ----
  virtual Round AnchorRound(uint64_t wave) const = 0;
  virtual ValidatorId AnchorAuthor(uint64_t wave) const = 0;
  // The round whose certificates decide wave w: no wave is looked at before
  // this round exists in the local DAG.
  virtual Round DecisionRound(uint64_t wave) const = 0;
  // Whether wave w may be decided yet. Waves are decided strictly in order,
  // so a false stops the scan until the DAG grows.
  virtual bool Decidable(uint64_t wave) const = 0;
  virtual bool Supported(uint64_t wave, const Certificate& anchor) const = 0;
  // Called once per commit event, after delivery and before the wave cursor
  // moves from `from` to `through` and is persisted.
  virtual void OnWavesSettled(uint64_t /*from*/, uint64_t /*through*/) {}
  // The rule's own durable state, carried in the meta record after the wave
  // cursor. LoadState must read exactly what SaveState wrote.
  virtual void SaveState(Writer& /*w*/) const {}
  virtual void LoadState(Reader& /*r*/) {}

  // ---- for rules ----
  const Dag& dag() const { return primary_->dag(); }
  const Committee& committee() const { return committee_; }
  bool IsCommitted(const Digest& digest) const { return log_.IsDelivered(digest); }
  // Number of round-`round` certificates whose header lists `anchor` as a
  // parent. Unknown headers can only undercount; sync re-triggers the rule.
  uint32_t DirectVotes(Round round, const Digest& anchor) const;

 private:
  const Certificate* AnchorCert(uint64_t wave) const;
  void TryCommit();
  // Commits the anchor chain ending at wave `wave`. Returns false if the
  // commit had to be deferred on missing headers (sync requested).
  bool CommitChain(uint64_t wave, const Certificate& anchor);
  void PersistMeta();

  Primary* primary_;
  const Committee& committee_;
  std::optional<Round> gc_depth_;
  CounterNames counters_;
  Tracer* tracer_ = nullptr;

  CommitLog log_;
  uint64_t last_committed_wave_ = 0;
  uint64_t skipped_anchors_ = 0;
  uint64_t last_skip_counted_ = 0;
  // The wave and anchor round of the delivery in progress, for the hooks.
  uint64_t delivering_wave_ = 0;
  Round delivering_anchor_round_ = 0;
};

}  // namespace nt

#endif  // SRC_TUSK_WAVE_COMMITTER_H_

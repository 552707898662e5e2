// Rate-controlled load generation, one generator per (validator, worker) —
// the paper's "one benchmark client per worker submitting transactions at a
// fixed rate" (§7). Every `tx_sample_rate`-th transaction carries a latency
// sample tracked end-to-end.
#ifndef SRC_RUNTIME_CLIENT_H_
#define SRC_RUNTIME_CLIENT_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/runtime/cluster.h"
#include "src/shard/workload.h"

namespace nt {

class LoadGenerator {
 public:
  struct Options {
    double rate_tps = 1000;      // Transactions per second from this client.
    uint64_t tx_size = 512;      // Bytes per transaction (paper baseline).
    uint64_t sample_rate = 100;  // One latency sample per this many txs.
    TimeDelta tick = Millis(10); // Submission granularity.
    TimePoint stop_at = kNever;  // Stop submitting at this time.

    // Transfer mode (sharded execution lanes, §8.4): when set, each
    // submission is an encoded ExecTx drawn from this workload instead of
    // `tx_size` synthetic bytes. The workload must outlive the generator.
    // Narwhal-based systems only (explicit payloads need workers). Draws come
    // from a per-generator stream derived from the cluster seed, so adding a
    // client never perturbs another's transaction sequence.
    const TransferWorkload* transfer = nullptr;

    // Client re-submission (paper §8.4): if a tracked transaction is not
    // committed within this timeout, submit it again — to the next validator
    // when `failover` is set (covers a crashed or censoring entry point).
    // After `max_resubmits` resubmits, the client abandons the transaction
    // once the last one has also timed out. A timeout of 0 disables this.
    TimeDelta resubmit_timeout = 0;
    bool failover = true;
    uint32_t max_resubmits = 8;
  };

  LoadGenerator(Cluster* cluster, ValidatorId validator, WorkerId worker, Options options);

  // Schedules the first tick.
  void Start();

  uint64_t submitted_txs() const { return submitted_; }
  uint64_t resubmitted_txs() const { return resubmitted_; }
  // Tracked transactions this client gave up on (max_resubmits exhausted and
  // the last attempt timed out).
  uint64_t abandoned_txs() const { return abandoned_; }

 private:
  struct PendingTx {
    uint64_t tx_id = 0;
    TimePoint submit_time = 0;    // Original submission (latency anchor).
    TimePoint last_attempt = 0;
    uint32_t attempts = 1;
    ValidatorId target = 0;
    // Transfer mode: the exact payload to resubmit (a retry must be the same
    // transaction — the worker's dedup window absorbs same-entry duplicates).
    Bytes payload;
  };

  void Tick();
  void CheckResubmits(TimePoint now);

  Cluster* cluster_;
  ValidatorId validator_;
  WorkerId worker_;
  Options options_;
  Rng rng_;  // Transfer-mode draws (derived per generator; unused otherwise).
  double carry_ = 0;  // Fractional transactions carried across ticks.
  uint64_t submitted_ = 0;
  uint64_t resubmitted_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t until_sample_ = 0;
  std::vector<PendingTx> pending_;  // Tracked (sampled) not-yet-committed txs.
};

}  // namespace nt

#endif  // SRC_RUNTIME_CLIENT_H_

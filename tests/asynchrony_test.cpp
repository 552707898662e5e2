// Asynchrony-window behaviour (paper §3.2 and Table 1's "unstable network"
// row): the Narwhal DAG keeps certifying through asynchrony, Tusk keeps
// committing, and an eventually-synchronous protocol over Narwhal recovers
// its entire backlog with the first commit after the network heals.
#include <gtest/gtest.h>

#include "src/common/trace.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace nt {
namespace {

struct AsyncRun {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  Round round_at_async_start = 0;
  Round round_at_async_end = 0;
  uint64_t txs_at_async_end = 0;
};

AsyncRun RunWithWindow(SystemKind system, uint64_t seed) {
  const TimePoint kAsyncStart = Seconds(6);
  const TimePoint kAsyncEnd = Seconds(16);
  const TimePoint kRunEnd = Seconds(28);
  AsyncRun run;
  ClusterConfig config;
  config.system = system;
  config.num_validators = 4;
  config.seed = seed;
  run.cluster = std::make_unique<Cluster>(config);
  run.cluster->faults().AddAsynchronyWindow(kAsyncStart, kAsyncEnd, 25.0);
  run.cluster->metrics().set_observer(0);
  run.cluster->metrics().SetWindow(Seconds(2), kRunEnd);
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = kRunEnd;
  for (ValidatorId v = 0; v < 4; ++v) {
    run.clients.push_back(std::make_unique<LoadGenerator>(run.cluster.get(), v, 0, options));
    run.clients.back()->Start();
  }
  run.cluster->Start();
  run.cluster->scheduler().RunUntil(kAsyncStart);
  run.round_at_async_start = run.cluster->primary(0)->dag().HighestRound();
  run.cluster->scheduler().RunUntil(kAsyncEnd);
  run.round_at_async_end = run.cluster->primary(0)->dag().HighestRound();
  run.txs_at_async_end = run.cluster->metrics().committed_txs();
  run.cluster->scheduler().RunUntil(kRunEnd);
  return run;
}

TEST(AsynchronyTest, DagAdvancesThroughAsynchrony) {
  AsyncRun run = RunWithWindow(SystemKind::kTusk, 1);
  // The mempool needs no timing assumption: rounds continue during the
  // window — slower, since a round still takes ~3 one-way hops, now
  // inflated 25x (~5s each) — and accelerate again after healing.
  EXPECT_GT(run.round_at_async_end, run.round_at_async_start);
  Round final_round = run.cluster->primary(0)->dag().HighestRound();
  EXPECT_GT(final_round, run.round_at_async_end + 10);
}

TEST(AsynchronyTest, TuskCommitsDuringAsynchrony) {
  AsyncRun run = RunWithWindow(SystemKind::kTusk, 2);
  // Commits during the window itself (wait-freedom).
  EXPECT_GT(run.txs_at_async_end, 1000u);
  // And the full run recovers nearly all input.
  double input = 2000.0 * 26.0;
  EXPECT_GT(run.cluster->metrics().committed_txs(), static_cast<uint64_t>(input * 0.8));
}

TEST(AsynchronyTest, NarwhalHsRecoversBacklogAfterHealing) {
  AsyncRun run = RunWithWindow(SystemKind::kNarwhalHs, 3);
  uint64_t during = run.txs_at_async_end;
  uint64_t total = run.cluster->metrics().committed_txs();
  // Largely stalled during the window...
  // ...but the first commits after healing cover the whole backlog
  // (2/3-Causality): the total approaches the input.
  double input = 2000.0 * 26.0;
  EXPECT_GT(total, static_cast<uint64_t>(input * 0.8));
  EXPECT_GT(total - during, (total * 2) / 5)
      << "expected a large post-healing catch-up burst";
}

TEST(AsynchronyTest, CertifiedRetransmissionsBackOffExponentially) {
  // Regression for the certified-path retransmission storm: once a header is
  // certified, RetryBroadcast switches to re-sharing the certificate, but it
  // used to re-read the retry count from a proposals_ entry that had already
  // been erased — every reshare rescheduled itself at the *base* delay,
  // flooding one certificate per second per stuck proposal for as long as the
  // round stalled. With the attempt carried through the rescheduled lambda the
  // reshare waits follow kHeaderRetry (src/net/retransmit.h: 1, 2, 4, 8, 8 s),
  // so retries fire at 1, 3, 7, 15, 23 s and a ~20 s asynchrony stall sees at
  // most ~5 reshare rounds per header instead of ~20.
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = 5;
  config.trace = true;
  Cluster cluster(config);
  cluster.faults().AddAsynchronyWindow(Seconds(2), Seconds(22), 30.0);
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = Seconds(30);
  for (ValidatorId v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(30));
  const Tracer* tracer = cluster.tracer();
  ASSERT_NE(tracer, nullptr);
  // The 30x window makes rounds take several seconds, so retries do fire on
  // both paths (the header may certify between retries — then the certified
  // branch takes over).
  EXPECT_GT(tracer->counter("header_retry/rounds") + tracer->counter("cert_reshare/rounds"), 0u)
      << "a 20 s asynchrony stall must trigger some retransmission";
  // Geometric bound: fire times 1,3,7,15,23 s past the proposal mean at most
  // 5 rounds fit in the stall, on either path (the attempt counter is shared).
  EXPECT_LE(tracer->max_retry_rounds("cert_reshare"), 6u)
      << "certificate reshares grew linearly (storm) instead of backing off";
  EXPECT_LE(tracer->max_retry_rounds("header_retry"), 6u)
      << "header retries grew linearly instead of backing off";
}

TEST(AsynchronyTest, AgreementHoldsAcrossTheWindow) {
  std::vector<std::vector<Digest>> sequences(4);
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = 4;
  Cluster cluster(config);
  cluster.faults().AddAsynchronyWindow(Seconds(4), Seconds(12), 30.0);
  for (ValidatorId v = 0; v < 4; ++v) {
    cluster.tusk(v)->add_on_commit(
        [&sequences, v](const Tusk::Committed& c) { sequences[v].push_back(c.digest); });
  }
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  LoadGenerator::Options options;
  options.rate_tps = 300;
  options.stop_at = Seconds(25);
  for (ValidatorId v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(25));
  ASSERT_GT(sequences[0].size(), 10u);
  for (ValidatorId a = 0; a < 4; ++a) {
    for (ValidatorId b = a + 1; b < 4; ++b) {
      size_t common = std::min(sequences[a].size(), sequences[b].size());
      for (size_t i = 0; i < common; ++i) {
        ASSERT_EQ(sequences[a][i], sequences[b][i]);
      }
    }
  }
}

}  // namespace
}  // namespace nt

// Golden event-hash regression: the exact (time, seq) firing order of the
// discrete-event engine, pinned in-tree for fixed seeds.
//
// Scheduler::event_hash() folds every fired event's (time, seq) pair in
// firing order, so these constants freeze the engine's observable behaviour
// bit-for-bit. Two layers:
//
//   - a pure scheduler workload (ties, cancels, mass-cancel compaction,
//     RunUntil boundaries) that depends on nothing but src/sim — it fails
//     iff the engine itself reorders or renumbers events;
//   - mid-size full-stack DST schedules — they fail on engine reordering
//     AND on any protocol-behaviour change, in which case the constants
//     must be consciously re-pinned in the same PR that changed behaviour.
//
// If this test breaks and you did NOT intend to change event ordering or
// protocol logic, you introduced nondeterminism or an accidental reorder.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/check/checker.h"
#include "src/check/schedule.h"
#include "src/common/rng.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/scheduler.h"

namespace nt {
namespace {

// Deterministic scheduler-only churn: a seeded mix of schedules (with time
// ties), cancels of queued/fired/bogus ids, reentrant re-scheduling, and a
// mass-cancel wave that trips heap compaction.
uint64_t SchedulerChurnHash(uint64_t seed, uint64_t* fired_out) {
  Scheduler sched;
  Rng rng(seed);
  std::vector<Scheduler::TimerId> ids;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 100; ++i) {
      TimePoint t = sched.now() + static_cast<TimePoint>(rng.NextBelow(50));
      if (rng.NextBool(0.3)) {
        // Reentrant: this event schedules another when it fires.
        ids.push_back(sched.ScheduleAt(t, [&sched, &rng] {
          sched.ScheduleAfter(static_cast<TimeDelta>(1 + rng.NextBelow(7)), [] {});
        }));
      } else {
        ids.push_back(sched.ScheduleAt(t, [] {}));
      }
    }
    // Cancel a seeded subset: some queued, some already fired, some bogus.
    for (int i = 0; i < 60; ++i) {
      sched.Cancel(ids[rng.NextBelow(ids.size())]);
    }
    sched.Cancel(9999999 + round);
    sched.RunUntil(sched.now() + static_cast<TimePoint>(25 + rng.NextBelow(25)));
  }
  // Mass cancel to force compaction, then drain.
  for (size_t i = 0; i < ids.size(); i += 2) {
    sched.Cancel(ids[i]);
  }
  sched.RunUntilIdle();
  *fired_out = sched.events_fired();
  return sched.event_hash();
}

TEST(EventHashGolden, SchedulerChurn) {
  struct Golden {
    uint64_t seed;
    uint64_t hash;
    uint64_t fired;
  };
  // Pinned from the pre-fast-path engine (PR base); the fast-path refactor
  // must reproduce these bit-for-bit.
  const Golden kGolden[] = {
      {1, 0xf94eedfbea6f791cull, 4824},
      {2, 0xd5d42f00909dac96ull, 4875},
      {3, 0xc3c46911a3f6967dull, 4828},
  };
  for (const Golden& g : kGolden) {
    uint64_t fired = 0;
    uint64_t hash = SchedulerChurnHash(g.seed, &fired);
    EXPECT_EQ(hash, g.hash) << "seed " << g.seed << " hash 0x" << std::hex << hash;
    EXPECT_EQ(fired, g.fired) << "seed " << g.seed;
  }
}

TEST(EventHashGolden, FullStackSchedules) {
  struct Golden {
    uint64_t seed;
    uint64_t hash;
    uint64_t fired;
    uint64_t commits;
    std::optional<SystemKind> system = std::nullopt;  // Seed picks when unset.
  };
  // Mid-size DST schedules (crashes/partitions/asynchrony included). Seeds 11
  // and 29 were pinned from the engine before its fast path. Seed 16
  // pinned to Bullshark restarts two validators (8 and 0), so the committer's
  // WAL recovery and post-recovery GC pruning are inside the hash; it and the
  // DAG-Rider run below were pinned while Tusk, Bullshark and DAG-Rider still
  // had separate committers. Seed 1026 draws Narwhal-HS (n=7) with two
  // restarts, validators 1 and 6, so the HotStuff and delivered-header WAL
  // recovery of Narwhal-HS is inside the hash too.
  const Golden kGolden[] = {
      {11, 0x4bd8b782bd02b6a0ull, 11867, 215},
      {29, 0x08c56da43d040bc2ull, 4274, 73},
      {16, 0xdd4e9701e41c89a7ull, 12725, 317, SystemKind::kBullshark},
      {1026, 0x235ceb9a179d2224ull, 10468, 282},
  };
  for (const Golden& g : kGolden) {
    CheckResult result = RunSchedule(GenerateSchedule(g.seed, g.system));
    EXPECT_TRUE(result.ok()) << "seed " << g.seed;
    EXPECT_EQ(result.event_hash, g.hash)
        << "seed " << g.seed << " hash 0x" << std::hex << result.event_hash;
    EXPECT_EQ(result.events_fired, g.fired) << "seed " << g.seed << " fired " << result.events_fired;
    EXPECT_EQ(result.commits, g.commits) << "seed " << g.seed << " commits " << result.commits;
  }
}

// DAG-Rider has no DST band (it does not support restarts), so a fault-free
// cluster run pins its commit path: 4 validators, 500 tx/s per client, 10 s.
TEST(EventHashGolden, DagRiderCluster) {
  ClusterConfig config;
  config.system = SystemKind::kDagRider;
  config.num_validators = 4;
  config.seed = 11;
  Cluster cluster(config);
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = Seconds(10);
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < config.num_validators; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  const Scheduler& sched = cluster.scheduler();
  EXPECT_EQ(sched.event_hash(), 0x78319deb70567d3cull) << "hash 0x" << std::hex
                                                       << sched.event_hash();
  EXPECT_EQ(sched.events_fired(), 9488u);
  EXPECT_EQ(cluster.dag_rider(0)->committed_headers(), 100u);
  EXPECT_EQ(cluster.dag_rider(0)->last_committed_wave(), 7u);
}

// Quorum edge for Narwhal-HS: 7 validators with 5 and 6 crashed from t=0
// (exactly 2f+1 live) and 5% loss, so every retransmission loop and the
// pacemaker's view timeout fire. The hash pins their delays and the order of
// their sends; the tracer counts check that each loop actually ran.
TEST(EventHashGolden, QuorumEdgeNarwhalHs) {
  ClusterConfig config;
  config.system = SystemKind::kNarwhalHs;
  config.num_validators = 7;
  config.seed = 7;
  config.trace = true;
  Cluster cluster(config);
  cluster.CrashValidator(5, 0);
  cluster.CrashValidator(6, 0);
  cluster.faults().SetLossRate(0.05);
  LoadGenerator::Options options;
  options.rate_tps = 200;  // 1000 tx/s over the five live entry points.
  options.stop_at = Seconds(15);
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < 5; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(15));
  const Scheduler& sched = cluster.scheduler();
  EXPECT_EQ(sched.event_hash(), 0x041f13fbd0b26bf1ull) << "hash 0x" << std::hex
                                                       << sched.event_hash();
  EXPECT_EQ(sched.events_fired(), 21877u);
  EXPECT_EQ(cluster.hotstuff(0)->committed_blocks(), 9u);
  const Tracer& tracer = *cluster.tracer();
  EXPECT_EQ(tracer.total_retry_rounds("header_retry"), 18u);
  EXPECT_EQ(tracer.total_retry_rounds("cert_reshare"), 32u);
  EXPECT_EQ(tracer.total_retry_rounds("batch_retry"), 267u);
  EXPECT_EQ(tracer.counter("hotstuff/timeouts"), 45u);
}

}  // namespace
}  // namespace nt

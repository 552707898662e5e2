// The simulated network fabric: latency, bandwidth queues, per-machine
// processing, FIFO streams, and fault injection.
#include "src/net/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/retransmit.h"

namespace nt {
namespace {

struct TestMsg : Message {
  size_t size;
  int tag;
  explicit TestMsg(size_t s, int t = 0) : size(s), tag(t) {}
  size_t WireSize() const override { return size; }
  MessageTypeId TypeId() const override { return MessageTypeId::kTest; }
};

struct Recorder : NetNode {
  struct Delivery {
    uint32_t from;
    int tag;
    TimePoint at;
  };
  std::vector<Delivery> deliveries;
  Scheduler* sched = nullptr;

  void OnMessage(uint32_t from, const MessagePtr& msg) override {
    auto test = std::dynamic_pointer_cast<const TestMsg>(msg);
    deliveries.push_back({from, test != nullptr ? test->tag : -1, sched->now()});
  }
};

struct NetFixture {
  Scheduler sched;
  FixedLatencyModel latency{Millis(10)};
  FaultController faults;
  NetworkConfig config;
  std::unique_ptr<Network> net;
  Recorder a, b;
  uint32_t a_id = 0, b_id = 0;

  explicit NetFixture(NetworkConfig cfg = {}) : config(cfg) {
    config.per_message_overhead = 0;
    net = std::make_unique<Network>(&sched, &latency, &faults, config, 1);
    a.sched = &sched;
    b.sched = &sched;
    a_id = net->AddNode(&a, 0, net->NewMachine());
    b_id = net->AddNode(&b, 0, net->NewMachine());
  }
};

TEST(NetworkTest, DeliversWithPropagationDelay) {
  NetFixture f;
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(100));
  f.sched.RunUntilIdle();
  ASSERT_EQ(f.b.deliveries.size(), 1u);
  // 100B at 10Gbps is well under a microsecond of transmit time each way.
  EXPECT_GE(f.b.deliveries[0].at, Millis(10));
  EXPECT_LT(f.b.deliveries[0].at, Millis(11));
  EXPECT_EQ(f.b.deliveries[0].from, f.a_id);
}

TEST(NetworkTest, BandwidthSerializesLargeSends) {
  NetworkConfig cfg;
  cfg.bandwidth_bps = 8e6;  // 1 MB/s so transmission time dominates.
  cfg.processing_Bps = 0;   // Disable the processing stage for this test.
  NetFixture f(cfg);
  // Two 1MB messages: the second's transmission starts after the first's.
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(1000 * 1000, 1));
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(1000 * 1000, 2));
  f.sched.RunUntilIdle();
  ASSERT_EQ(f.b.deliveries.size(), 2u);
  // First: ~1s egress + 10ms prop + ~1s ingress = ~2.01s.
  EXPECT_NEAR(ToSeconds(f.b.deliveries[0].at), 2.01, 0.05);
  // Second queues behind the first on both NICs: ~1s later.
  EXPECT_NEAR(ToSeconds(f.b.deliveries[1].at), 3.01, 0.05);
  EXPECT_EQ(f.b.deliveries[0].tag, 1);
  EXPECT_EQ(f.b.deliveries[1].tag, 2);
}

TEST(NetworkTest, ProcessingStageThrottlesBulkPayloads) {
  NetworkConfig cfg;
  cfg.processing_Bps = 1e6;  // 1 MB/s data path.
  cfg.processing_min_bytes = 4096;
  NetFixture f(cfg);
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(500 * 1000, 1));
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(100, 2));  // Metadata: skips queue.
  f.sched.RunUntilIdle();
  ASSERT_EQ(f.b.deliveries.size(), 2u);
  // Bulk message: 10ms prop + 0.5s processing.
  EXPECT_EQ(f.b.deliveries[0].tag, 1);
  EXPECT_NEAR(ToSeconds(f.b.deliveries[0].at), 0.51, 0.05);
  // The small message skips the processing queue but the per-machine-pair
  // stream is FIFO, so it lands right after the bulk message.
  EXPECT_EQ(f.b.deliveries[1].tag, 2);
  EXPECT_NEAR(ToSeconds(f.b.deliveries[1].at), 0.51, 0.05);
}

TEST(NetworkTest, LocalDeliveryBetweenCollocatedNodes) {
  Scheduler sched;
  FixedLatencyModel latency{Millis(50)};
  NetworkConfig cfg;
  Network net(&sched, &latency, nullptr, cfg, 1);
  Recorder a, b;
  a.sched = &sched;
  b.sched = &sched;
  uint32_t machine = net.NewMachine();
  uint32_t a_id = net.AddNode(&a, 0, machine);
  uint32_t b_id = net.AddNode(&b, 0, machine);
  net.Send(a_id, b_id, std::make_shared<TestMsg>(1000 * 1000));
  sched.RunUntilIdle();
  ASSERT_EQ(b.deliveries.size(), 1u);
  EXPECT_LE(b.deliveries[0].at, Millis(1));  // IPC, not the WAN.
}

TEST(NetworkTest, CrashedSourceSendsNothing) {
  NetFixture f;
  f.faults.CrashAt(f.a_id, 0);
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(10));
  f.sched.RunUntilIdle();
  EXPECT_TRUE(f.b.deliveries.empty());
  EXPECT_EQ(f.net->messages_dropped(), 1u);
}

TEST(NetworkTest, CrashedDestinationDropsAtDelivery) {
  NetFixture f;
  f.faults.CrashAt(f.b_id, Millis(5));  // Crashes while the message is in flight.
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(10));
  f.sched.RunUntilIdle();
  EXPECT_TRUE(f.b.deliveries.empty());
}

TEST(NetworkTest, CrashTimeIsRespected) {
  NetFixture f;
  f.faults.CrashAt(f.a_id, Millis(100));
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(10));  // Before crash: delivered.
  f.sched.RunUntil(Millis(200));
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(10));  // After crash: dropped.
  f.sched.RunUntilIdle();
  EXPECT_EQ(f.b.deliveries.size(), 1u);
}

TEST(NetworkTest, PartitionDefersDelivery) {
  NetFixture f;
  f.faults.Isolate(f.b_id, 0, Seconds(5));
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(10));
  f.sched.RunUntilIdle();
  ASSERT_EQ(f.b.deliveries.size(), 1u);
  // Deferred to the heal time plus a fresh propagation delay.
  EXPECT_GE(f.b.deliveries[0].at, Seconds(5));
  EXPECT_LT(f.b.deliveries[0].at, Seconds(5) + Millis(20));
}

TEST(NetworkTest, AsynchronyWindowInflatesLatency) {
  NetFixture f;
  f.faults.AddAsynchronyWindow(0, Seconds(10), 100.0);
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(10));
  f.sched.RunUntilIdle();
  ASSERT_EQ(f.b.deliveries.size(), 1u);
  EXPECT_NEAR(ToSeconds(f.b.deliveries[0].at), 1.0, 0.05);  // 10ms x100.
}

TEST(NetworkTest, RandomLossDropsSomeMessages) {
  NetFixture f;
  f.faults.SetLossRate(0.5);
  for (int i = 0; i < 200; ++i) {
    f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(10));
  }
  f.sched.RunUntilIdle();
  EXPECT_GT(f.b.deliveries.size(), 50u);
  EXPECT_LT(f.b.deliveries.size(), 150u);
}

TEST(NetworkTest, StatisticsAreCounted) {
  NetFixture f;
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(100));
  f.sched.RunUntilIdle();
  EXPECT_EQ(f.net->messages_sent(), 1u);
  EXPECT_EQ(f.net->messages_delivered(), 1u);
  EXPECT_EQ(f.net->bytes_sent(), 100u);
}

TEST(NetworkTest, PerTypeStatisticsAccumulate) {
  NetFixture f;
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(100));
  f.net->Send(f.a_id, f.b_id, std::make_shared<TestMsg>(50));
  f.sched.RunUntilIdle();
  const auto& stats = f.net->type_stats();
  auto it = stats.find("Test");
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.messages, 2u);
  EXPECT_EQ(it->second.bytes, 150u);
}

TEST(WanLatencyTest, MatrixIsSymmetricAndSamplesJitter) {
  WanLatencyModel wan;
  Rng rng(42);
  for (uint32_t i = 0; i < kWanRegionCount; ++i) {
    for (uint32_t j = 0; j < kWanRegionCount; ++j) {
      EXPECT_EQ(wan.Mean(i, j), wan.Mean(j, i));
    }
  }
  // Samples cluster near the mean for a long link.
  TimeDelta mean = wan.Mean(kUsEast1, kApSoutheast2);
  for (int i = 0; i < 100; ++i) {
    TimeDelta sample = wan.Sample(kUsEast1, kApSoutheast2, rng);
    EXPECT_GT(sample, mean * 9 / 10);
    EXPECT_LT(sample, mean * 2);
  }
}

TEST(FaultControllerTest, EarliestReachableHandlesOverlaps) {
  FaultController faults;
  faults.Isolate(1, Millis(10), Millis(50));
  faults.Isolate(2, Millis(40), Millis(90));
  // At t=20: node 1 isolated until 50; then node 2 until 90.
  EXPECT_EQ(faults.EarliestReachable(1, 2, Millis(20)), Millis(90));
  EXPECT_EQ(faults.EarliestReachable(1, 2, Millis(95)), Millis(95));
  EXPECT_EQ(faults.EarliestReachable(3, 4, Millis(20)), Millis(20));
}

// Exposes NetNode::Schedule. A firing counts in the node itself (so a
// callback run after destruction is a use-after-free under ASan) and in
// `*fired`, which outlives the node.
struct TimerNode : NetNode {
  int fires = 0;
  void OnMessage(uint32_t, const MessagePtr&) override {}
  void Arm(Scheduler* scheduler, TimeDelta delay, int* fired) {
    Schedule(scheduler, delay, [this, fired] {
      ++fires;
      ++*fired;
    });
  }
};

TEST(NetNodeTest, ScheduleSkipsCallbacksOfDestroyedNode) {
  Scheduler sched;
  auto live = std::make_unique<TimerNode>();
  auto dead = std::make_unique<TimerNode>();
  int live_fired = 0;
  int dead_fired = 0;
  live->Arm(&sched, Millis(10), &live_fired);
  dead->Arm(&sched, Millis(10), &dead_fired);
  dead->Arm(&sched, Millis(20), &dead_fired);
  dead.reset();  // Both of its callbacks are still queued.
  sched.RunUntilIdle();
  EXPECT_EQ(live_fired, 1);
  EXPECT_EQ(dead_fired, 0);
  EXPECT_EQ(sched.events_fired(), 3u);  // The skipped callbacks still fire as no-ops.
}

// Every named policy reproduces the waits its loop used before the policy was
// shared: one row per loop, waits listed from the loop's first retry index.
TEST(BackoffTest, NamedPoliciesKeepTheirWaitSequences) {
  struct Row {
    const char* name;
    Backoff backoff;
    uint32_t first_k;
    std::vector<TimeDelta> waits;
  };
  const Row kRows[] = {
      {"kHeaderRetry", kHeaderRetry, 0,
       {Seconds(1), Seconds(2), Seconds(4), Seconds(8), Seconds(8)}},
      {"kBatchRetry", kBatchRetry, 0,
       {Millis(500), Seconds(1), Seconds(2), Seconds(4), Seconds(8), Seconds(16), Seconds(32),
        Seconds(32)}},
      {"kHeaderSync", kHeaderSync, 1,
       {Millis(600), Millis(1200), Millis(2400), Millis(4800), Millis(9600), Millis(19200),
        Millis(19200)}},
      {"kBatchFetch", kBatchFetch, 0,
       {Millis(300), Millis(600), Millis(1200), Millis(2400), Millis(4800), Millis(9600),
        Millis(19200), Millis(19200)}},
      {"kProposalRetry", kProposalRetry, 0,
       {Millis(300), Millis(600), Millis(1200), Millis(2400), Millis(2400)}},
      {"kBlockFetch", kBlockFetch, 0, {Millis(300), Millis(300), Millis(300)}},
      {"kViewTimeout", kViewTimeout, 0,
       {Seconds(1), Seconds(2), Seconds(4), Seconds(8), Seconds(8)}},
  };
  for (const Row& row : kRows) {
    for (size_t i = 0; i < row.waits.size(); ++i) {
      uint32_t k = row.first_k + static_cast<uint32_t>(i);
      EXPECT_EQ(row.backoff.Delay(k), row.waits[i]) << row.name << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace nt

// Engine microbenchmark: isolates the discrete-event core (scheduler +
// network fabric) that every experiment in this reproduction runs on.
//
// Scenarios:
//   timer_ring    K self-rescheduling timers (the heartbeat pattern of
//                 workers/primaries/clients) — pure scheduler throughput.
//   cancel_churn  schedule-3 / cancel-2 per firing (the retry-timer pattern)
//                 — exercises Cancel() liveness bookkeeping.
//   midsize       THE headline scenario: 50 machines x 4 nodes forwarding
//                 small messages over the full fabric (egress/ingress
//                 queues, FIFO clamp, per-type accounting) plus timer
//                 churn — engine events/sec on a paper-shaped topology.
//   send_enqueue  tight Network::Send loop — cost of one send before any
//                 delivery work.
//   fullstack     RunSchedule over a fixed DST schedule — end-to-end
//                 events/sec with protocol + crypto + invariant work (the
//                 honest, diluted number).
//
// Every scenario reports events- (or sends-) per-second and heap
// allocations per event via a counting global operator new.
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/checker.h"
#include "src/check/schedule.h"
#include "src/net/latency.h"
#include "src/net/network.h"
#include "src/sim/scheduler.h"

namespace {
uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace nt {
namespace {

struct Measure {
  double seconds = 0;
  uint64_t allocs = 0;
};

template <typename F>
Measure Timed(F&& body) {
  const uint64_t allocs0 = g_allocs;
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  Measure m;
  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  m.allocs = g_allocs - allocs0;
  return m;
}

// Repetitions per scenario; the fastest is reported. CI containers share
// cores, so a single shot can be 2x slow purely from neighbors — the max
// over a few runs approximates the uncontended rate. Allocation counts are
// deterministic, so they ride along with whichever rep was fastest.
constexpr int kReps = 3;

template <typename Result, typename F>
Result BestOf(F&& run) {
  Result best = run();
  for (int i = 1; i < kReps; ++i) {
    Result r = run();
    if (r.RatePerSec() > best.RatePerSec()) {
      best = r;
    }
  }
  return best;
}

// --------------------------------------------------------------- timer_ring

struct Chain {
  Scheduler* sched;
  uint64_t* fired;
  uint64_t total;

  void Fire() {
    if (++*fired < total) {
      sched->ScheduleAfter(1, [this] { Fire(); });
    }
  }
};

struct RingResult {
  double events_per_sec;
  double allocs_per_event;
  double RatePerSec() const { return events_per_sec; }
};

RingResult TimerRing(uint64_t total_events) {
  Scheduler sched;
  uint64_t fired = 0;
  constexpr int kChains = 512;
  std::vector<Chain> chains(kChains, Chain{&sched, &fired, 0});
  for (Chain& c : chains) {
    c.total = total_events;
  }
  for (int i = 0; i < kChains; ++i) {
    sched.ScheduleAfter(1 + i, [c = &chains[i]] { c->Fire(); });
  }
  Measure m = Timed([&] { sched.RunUntilIdle(); });
  RingResult r;
  r.events_per_sec = static_cast<double>(sched.events_fired()) / m.seconds;
  r.allocs_per_event = static_cast<double>(m.allocs) / static_cast<double>(sched.events_fired());
  return r;
}

// ------------------------------------------------------------- cancel_churn

// Every firing schedules three future events and immediately cancels two —
// the shape of retry timers that are armed per attempt and disarmed on ack.
struct Churner {
  Scheduler* sched;
  uint64_t* fired;
  uint64_t total;

  void Fire() {
    if (++*fired >= total) {
      return;
    }
    Scheduler::TimerId a = sched->ScheduleAfter(5, [this] { Fire(); });
    Scheduler::TimerId b = sched->ScheduleAfter(9, [this] { Fire(); });
    sched->ScheduleAfter(2, [this] { Fire(); });
    sched->Cancel(a);
    sched->Cancel(b);
  }
};

struct ChurnResult {
  double events_per_sec;
  double RatePerSec() const { return events_per_sec; }
};

ChurnResult CancelChurn(uint64_t total_events) {
  Scheduler sched;
  uint64_t fired = 0;
  Churner churner{&sched, &fired, total_events};
  sched.ScheduleAfter(1, [&churner] { churner.Fire(); });
  Measure m = Timed([&] { sched.RunUntilIdle(); });
  // Rate over fired + cancelled: cancels are the point of this scenario.
  return ChurnResult{static_cast<double>(sched.events_fired() + 2 * total_events) / m.seconds};
}

// ------------------------------------------------------- midsize + enqueue

struct PingMsg : Message {
  size_t WireSize() const override { return 128; }
  MessageTypeId TypeId() const override { return MessageTypeId::kTest; }
};

// A node that forwards every delivery to a fixed next hop and, every eighth
// message, arms a fresh timer while cancelling the previous one.
struct MeshNode : NetNode {
  Network* net = nullptr;
  uint32_t id = 0;
  uint32_t next = 0;
  uint64_t received = 0;
  Scheduler::TimerId pending = Scheduler::kInvalidTimer;
  MessagePtr ping;

  void OnMessage(uint32_t, const MessagePtr&) override {
    ++received;
    net->Send(id, next, ping);
    if (received % 8 == 0) {
      net->scheduler()->Cancel(pending);
      pending = net->scheduler()->ScheduleAfter(Millis(50), [] {});
    }
  }
};

struct MeshResult {
  double events_per_sec;
  double sends_per_sec;
  double allocs_per_event;
  double RatePerSec() const { return events_per_sec; }
};

// The mid-size scenario: 50 machines x 4 nodes (the paper's n=50 committee
// with collocated workers), 512 messages in flight, fixed 10ms propagation.
MeshResult MidsizeMesh(uint64_t target_events) {
  Scheduler sched;
  FixedLatencyModel latency(Millis(10));
  NetworkConfig config;
  Network net(&sched, &latency, /*faults=*/nullptr, config, /*seed=*/1);

  constexpr uint32_t kMachines = 50;
  constexpr uint32_t kNodesPerMachine = 4;
  constexpr uint32_t kNodes = kMachines * kNodesPerMachine;
  std::vector<MeshNode> mesh(kNodes);
  MessagePtr ping = std::make_shared<PingMsg>();
  for (uint32_t m = 0; m < kMachines; ++m) {
    uint32_t machine = net.NewMachine();
    for (uint32_t i = 0; i < kNodesPerMachine; ++i) {
      uint32_t id = m * kNodesPerMachine + i;
      net.AddNode(&mesh[id], /*region=*/m % kWanRegionCount, machine);
      mesh[id].net = &net;
      mesh[id].id = id;
      // Co-prime stride: the traffic pattern touches every (src, dst) pair
      // class and never degenerates into a self-loop.
      mesh[id].next = (id * 13 + 7) % kNodes;
      mesh[id].ping = ping;
    }
  }
  for (uint32_t i = 0; i < 512; ++i) {
    net.Send(i % kNodes, mesh[i % kNodes].next, ping);
  }
  Measure m = Timed([&] {
    while (sched.events_fired() < target_events && sched.RunOne()) {
    }
  });
  MeshResult r;
  r.events_per_sec = static_cast<double>(sched.events_fired()) / m.seconds;
  r.sends_per_sec = static_cast<double>(net.messages_sent()) / m.seconds;
  r.allocs_per_event = static_cast<double>(m.allocs) / static_cast<double>(sched.events_fired());
  return r;
}

struct EnqueueResult {
  double sends_per_sec;
  double allocs_per_send;
  double RatePerSec() const { return sends_per_sec; }
};

// Tight Send loop between two machines: the enqueue-side cost of one send
// (queues, FIFO clamp, per-type accounting, delivery scheduling).
EnqueueResult SendEnqueue(uint64_t sends) {
  Scheduler sched;
  FixedLatencyModel latency(Millis(10));
  NetworkConfig config;
  Network net(&sched, &latency, /*faults=*/nullptr, config, /*seed=*/1);
  struct Sink : NetNode {
    void OnMessage(uint32_t, const MessagePtr&) override {}
  };
  Sink a, b;
  uint32_t a_id = net.AddNode(&a, 0, net.NewMachine());
  uint32_t b_id = net.AddNode(&b, 0, net.NewMachine());
  MessagePtr ping = std::make_shared<PingMsg>();
  Measure m = Timed([&] {
    for (uint64_t i = 0; i < sends; ++i) {
      net.Send(a_id, b_id, ping);
    }
  });
  sched.RunUntilIdle();  // Drain outside the timed region.
  EnqueueResult r;
  r.sends_per_sec = static_cast<double>(sends) / m.seconds;
  r.allocs_per_send = static_cast<double>(m.allocs) / static_cast<double>(sends);
  return r;
}

// ---------------------------------------------------------------- fullstack

struct FullResult {
  double events_per_sec;
  double RatePerSec() const { return events_per_sec; }
};

FullResult FullStack() {
  FaultSchedule schedule = GenerateSchedule(7);
  uint64_t events = 0;
  Measure m = Timed([&] {
    CheckResult result = RunSchedule(schedule);
    events = result.events_fired;
  });
  return FullResult{static_cast<double>(events) / m.seconds};
}

}  // namespace
}  // namespace nt

int main(int argc, char** argv) {
  using namespace nt;
  // --quick shrinks the event budgets ~8x (for smoke runs / CI sanity).
  // --only NAME runs a single scenario (no JSON) — for profiling.
  uint64_t scale = 1;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      scale = 8;
    } else if (std::string(argv[i]) == "--only" && i + 1 < argc) {
      only = argv[++i];
    }
  }
  if (!only.empty()) {
    double rate = 0;
    if (only == "timer_ring") {
      rate = TimerRing(4'000'000 / scale).events_per_sec;
    } else if (only == "cancel_churn") {
      rate = CancelChurn(1'000'000 / scale).events_per_sec;
    } else if (only == "midsize") {
      rate = MidsizeMesh(2'000'000 / scale).events_per_sec;
    } else if (only == "send_enqueue") {
      rate = SendEnqueue(1'000'000 / scale).sends_per_sec;
    } else if (only == "fullstack") {
      rate = FullStack().events_per_sec;
    } else {
      std::fprintf(stderr, "unknown scenario: %s\n", only.c_str());
      return 1;
    }
    std::printf("%s %.0f\n", only.c_str(), rate);
    return 0;
  }

  PrintBanner("simulator-engine microbenchmark");

  RingResult ring = BestOf<RingResult>([&] { return TimerRing(4'000'000 / scale); });
  std::printf("timer_ring    %12.0f events/s   %6.2f allocs/event\n", ring.events_per_sec,
              ring.allocs_per_event);

  ChurnResult churn = BestOf<ChurnResult>([&] { return CancelChurn(1'000'000 / scale); });
  std::printf("cancel_churn  %12.0f events/s (incl. cancels)\n", churn.events_per_sec);

  MeshResult mesh = BestOf<MeshResult>([&] { return MidsizeMesh(2'000'000 / scale); });
  std::printf("midsize       %12.0f events/s   %12.0f sends/s   %6.2f allocs/event\n",
              mesh.events_per_sec, mesh.sends_per_sec, mesh.allocs_per_event);

  EnqueueResult enq = BestOf<EnqueueResult>([&] { return SendEnqueue(1'000'000 / scale); });
  std::printf("send_enqueue  %12.0f sends/s    %6.2f allocs/send\n", enq.sends_per_sec,
              enq.allocs_per_send);

  FullResult full = BestOf<FullResult>([&] { return FullStack(); });
  std::printf("fullstack     %12.0f events/s\n", full.events_per_sec);

  return 0;
}

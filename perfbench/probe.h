// Link-time probes shared by both benchmark programs.
//
// probe.cpp wraps a handful of public entry points (GNU ld --wrap; see
// CMakeLists.txt) so the harness can observe what happens inside runs it does
// not drive itself — chiefly RunSchedule, which builds its own Cluster:
//   - Scheduler::RunUntil marks where the event loop starts;
//   - Cluster::SubmitTx / SubmitTxPayload record sampled transaction ids;
//   - Worker::SubmitBlock, ShardedExecutor's constructor and
//     OnCommittedHeader track DST transactions from submission to commit at
//     the validator they were submitted to.
// None of these probes time anything. In the traced program (NTPERF_TRACED)
// the same wrappers also open spans, and spans.cpp wraps the remaining layer
// entry points.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nt {
class Cluster;
}

namespace perf {

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- event-loop timing ------------------------------------------------------

// Host time at which the most recent Scheduler::RunUntil call started
// (0 until one starts). The harness resets it before each simulation.
extern double g_loop_start;

// --- sampled transactions (LoadGenerator workloads) -------------------------

// Ids of every sampled transaction's first submission, in submission order.
extern std::vector<uint64_t> g_sample_ids;

// --- DST transaction tracking (RunSchedule workloads) -----------------------

struct DstTracker {
  bool active = false;
  nt::Cluster* cluster = nullptr;  // The cluster RunSchedule built.
  uint32_t executors_built = 0;    // The k-th executor built is validator k's.
  std::map<const void*, uint32_t> executor_of;
  struct Pending {
    uint32_t validator = 0;
    int64_t submit_us = 0;
    uint64_t txs = 0;
  };
  // Batch digest (as bytes) -> submission still waiting for its commit at
  // the submitting validator.
  std::map<std::string, Pending> pending;
  std::vector<double> latency_s;  // Per committed transaction.
  uint64_t submitted_txs = 0;
  uint64_t committed_txs = 0;

  void Reset();
};
extern DstTracker g_dst;

// --- spans (traced program only) --------------------------------------------

enum Layer : int {
  kUnattributed = 0,  // Root: traced wall time no other span covers.
  kSim,
  kNetSend,
  kCrypto,
  kCertVerify,
  kVoteVerify,
  kEncode,
  kDagInsert,
  kWorkerSubmit,
  kExecApply,
  kRuntimeSubmit,
  kCheckOracle,
  kLayerCount,
};

struct LayerTotals {
  uint64_t calls = 0;
  double self_s = 0;
};

#ifdef NTPERF_TRACED
// Opens the root span (no-op if one is open); spans only count while it is.
void BeginRoot();
// Closes the root span; returns its duration in seconds.
double EndRoot();
// Per-layer totals accumulated since the last ResetSpans().
const LayerTotals* Totals();
void ResetSpans();
uint64_t Sha256Bytes();
uint64_t CertCacheLookups();
uint64_t CertCacheHits();
uint64_t ExecApplyRejected();

// Counters read from every Cluster just before it is destroyed (RunSchedule's
// included), summed over the clusters since the last ResetSpans().
struct Harvest {
  uint64_t clusters = 0;
  uint64_t events = 0;
  double sim_s = 0;  // Simulated seconds, summed over clusters.
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t dropped = 0;
  std::map<std::string, uint64_t> msgs_by_type;
  double egress_util_max = 0;  // Busiest NIC's busy fraction, any cluster.
  uint64_t store_syncs = 0;
  uint64_t store_records = 0;
  double round_period_ms_sum = 0;  // One term per cluster that ran rounds.
  uint64_t round_period_n = 0;
  std::map<std::string, uint64_t> tracer;  // Tracer counters, summed.
  uint64_t hs_views = 0;
  uint64_t resubmits = 0;
  uint64_t abandoned = 0;
};
const Harvest& Harvested();

class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool open_;
};
#define PERF_SPAN(layer) ::perf::Span perf_span_(layer)
#else
#define PERF_SPAN(layer) \
  do {                   \
  } while (0)
#endif

}  // namespace perf

#endif  // PERFBENCH_PROBE_H_

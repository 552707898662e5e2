#include "perfbench/probe.h"

#include <optional>

#include "src/runtime/cluster.h"
#include "src/shard/sharded_executor.h"

namespace perf {

double g_loop_start = 0;
std::vector<uint64_t> g_sample_ids;
DstTracker g_dst;

void DstTracker::Reset() { *this = DstTracker(); }

namespace {

std::string Key(const nt::Digest& d) { return std::string(d.begin(), d.end()); }

}  // namespace

}  // namespace perf

using perf::g_dst;

// Wrapped symbols: `__real_X` is the original definition, `__wrap_X` receives
// every call made from another object file. Member functions take `this` as
// their first parameter.
extern "C" {

void __real__ZN2nt9Scheduler8RunUntilEl(nt::Scheduler* self, nt::TimePoint t);
void __wrap__ZN2nt9Scheduler8RunUntilEl(nt::Scheduler* self, nt::TimePoint t) {
  perf::g_loop_start = perf::NowSeconds();
#ifdef NTPERF_TRACED
  perf::BeginRoot();
#endif
  __real__ZN2nt9Scheduler8RunUntilEl(self, t);
}

void __real__ZN2nt7ClusterC1ERKNS_13ClusterConfigE(nt::Cluster* self,
                                                   const nt::ClusterConfig& config);
void __wrap__ZN2nt7ClusterC1ERKNS_13ClusterConfigE(nt::Cluster* self,
                                                   const nt::ClusterConfig& config) {
#ifdef NTPERF_TRACED
  // The traced run turns on the program's own lifecycle tracer everywhere,
  // RunSchedule's clusters included, for its counters and retry rounds.
  nt::ClusterConfig traced = config;
  traced.trace = true;
  __real__ZN2nt7ClusterC1ERKNS_13ClusterConfigE(self, traced);
#else
  __real__ZN2nt7ClusterC1ERKNS_13ClusterConfigE(self, config);
#endif
  if (g_dst.active) {
    g_dst.cluster = self;
  }
}

void __real__ZN2nt7Cluster8SubmitTxEjjmSt8optionalINS_8TxSampleEE(
    nt::Cluster* self, nt::ValidatorId v, nt::WorkerId w, uint64_t size,
    std::optional<nt::TxSample> sample);
void __wrap__ZN2nt7Cluster8SubmitTxEjjmSt8optionalINS_8TxSampleEE(
    nt::Cluster* self, nt::ValidatorId v, nt::WorkerId w, uint64_t size,
    std::optional<nt::TxSample> sample) {
  PERF_SPAN(perf::kRuntimeSubmit);
  // A resubmission keeps its submit time but not its first-attempt stamp.
  if (sample && sample->submit_time == self->scheduler().now()) {
    perf::g_sample_ids.push_back(sample->tx_id);
  }
  __real__ZN2nt7Cluster8SubmitTxEjjmSt8optionalINS_8TxSampleEE(self, v, w, size, sample);
}

void __real__ZN2nt7Cluster15SubmitTxPayloadEjjSt6vectorIhSaIhEESt8optionalINS_8TxSampleEE(
    nt::Cluster* self, nt::ValidatorId v, nt::WorkerId w, nt::Bytes payload,
    std::optional<nt::TxSample> sample);
void __wrap__ZN2nt7Cluster15SubmitTxPayloadEjjSt6vectorIhSaIhEESt8optionalINS_8TxSampleEE(
    nt::Cluster* self, nt::ValidatorId v, nt::WorkerId w, nt::Bytes payload,
    std::optional<nt::TxSample> sample) {
  PERF_SPAN(perf::kRuntimeSubmit);
  if (sample && sample->submit_time == self->scheduler().now()) {
    perf::g_sample_ids.push_back(sample->tx_id);
  }
  __real__ZN2nt7Cluster15SubmitTxPayloadEjjSt6vectorIhSaIhEESt8optionalINS_8TxSampleEE(
      self, v, w, std::move(payload), sample);
}

nt::Digest __real__ZN2nt6Worker11SubmitBlockESt6vectorIS1_IhSaIhEESaIS3_EE(
    nt::Worker* self, std::vector<nt::Bytes> txs);
nt::Digest __wrap__ZN2nt6Worker11SubmitBlockESt6vectorIS1_IhSaIhEESaIS3_EE(
    nt::Worker* self, std::vector<nt::Bytes> txs) {
  PERF_SPAN(perf::kWorkerSubmit);
  const uint64_t count = txs.size();
  nt::Digest digest =
      __real__ZN2nt6Worker11SubmitBlockESt6vectorIS1_IhSaIhEESaIS3_EE(self, std::move(txs));
  if (g_dst.active && g_dst.cluster != nullptr) {
    nt::Cluster* c = g_dst.cluster;
    for (nt::ValidatorId v = 0; v < c->config().num_validators; ++v) {
      if (c->worker(v, 0) == self) {
        g_dst.pending[perf::Key(digest)] = {v, c->scheduler().now(), count};
        g_dst.submitted_txs += count;
        break;
      }
    }
  }
  return digest;
}

void __real__ZN2nt15ShardedExecutorC1EjSt8functionIFSt10shared_ptrIKNS_5BatchEERKNS_8BatchRefEEE(
    nt::ShardedExecutor* self, uint32_t lanes, nt::ShardedExecutor::BatchSource source);
void __wrap__ZN2nt15ShardedExecutorC1EjSt8functionIFSt10shared_ptrIKNS_5BatchEERKNS_8BatchRefEEE(
    nt::ShardedExecutor* self, uint32_t lanes, nt::ShardedExecutor::BatchSource source) {
  __real__ZN2nt15ShardedExecutorC1EjSt8functionIFSt10shared_ptrIKNS_5BatchEERKNS_8BatchRefEEE(
      self, lanes, std::move(source));
  if (g_dst.active) {
    // RunSchedule builds one executor per validator, in validator order;
    // remember which is which through the executor's address.
    g_dst.executor_of[self] = g_dst.executors_built++;
  }
}

void __real__ZN2nt15ShardedExecutor17OnCommittedHeaderESt10shared_ptrIKNS_11BlockHeaderEE(
    nt::ShardedExecutor* self, std::shared_ptr<const nt::BlockHeader> header);
void __wrap__ZN2nt15ShardedExecutor17OnCommittedHeaderESt10shared_ptrIKNS_11BlockHeaderEE(
    nt::ShardedExecutor* self, std::shared_ptr<const nt::BlockHeader> header) {
  if (g_dst.active && g_dst.cluster != nullptr) {
    auto owner = g_dst.executor_of.find(self);
    if (owner != g_dst.executor_of.end()) {
      const nt::TimePoint now = g_dst.cluster->scheduler().now();
      for (const nt::BatchRef& ref : header->batches) {
        auto it = g_dst.pending.find(perf::Key(ref.digest));
        if (it != g_dst.pending.end() && it->second.validator == owner->second) {
          for (uint64_t i = 0; i < it->second.txs; ++i) {
            g_dst.latency_s.push_back(nt::ToSeconds(now - it->second.submit_us));
          }
          g_dst.committed_txs += it->second.txs;
          g_dst.pending.erase(it);
        }
      }
    }
  }
  __real__ZN2nt15ShardedExecutor17OnCommittedHeaderESt10shared_ptrIKNS_11BlockHeaderEE(
      self, std::move(header));
}

}  // extern "C"

// Per-layer spans for the traced benchmark program.
//
// Each wrapper below times one call into a layer's public entry point. Spans
// sit on a stack: a span's self time is its duration minus the time of the
// spans it encloses, so self times never double count. The root span (opened
// when the event loop starts, see probe.cpp) collects whatever no other span
// covers — protocol handlers, the scheduler's pop path, client bookkeeping —
// as `runtime.unattributed_s`. Calls made through virtual dispatch, or that
// stay inside one translation unit, are never wrapped; their time lands in
// the root or in the enclosing span.
#include <algorithm>
#include <optional>

#include "perfbench/probe.h"
#include "src/check/oracle.h"
#include "src/common/trace.h"
#include "src/exec/state_machine.h"
#include "src/runtime/cluster.h"
#include "src/types/cert_cache.h"

namespace perf {
namespace {

struct Frame {
  Layer layer;
  double start;
  double child;
};

std::vector<Frame> g_stack;
LayerTotals g_totals[kLayerCount];
uint64_t g_sha256_bytes = 0;
uint64_t g_cache_lookups = 0;
uint64_t g_cache_hits = 0;
uint64_t g_apply_rejected = 0;
Harvest g_harvest;

void Close(bool count_call = true) {
  const Frame f = g_stack.back();
  g_stack.pop_back();
  const double dur = NowSeconds() - f.start;
  g_totals[f.layer].self_s += dur - f.child;
  g_totals[f.layer].calls += count_call ? 1 : 0;
  if (!g_stack.empty()) {
    g_stack.back().child += dur;
  }
}

bool Recording() { return !g_stack.empty(); }

void HarvestCluster(nt::Cluster* c) {
  Harvest& h = g_harvest;
  const uint32_t n = c->config().num_validators;
  const double sim_s = nt::ToSeconds(c->scheduler().now());
  ++h.clusters;
  h.events += c->scheduler().events_fired();
  h.sim_s += sim_s;
  nt::Network& net = c->network();
  h.msgs += net.messages_sent();
  h.bytes += net.bytes_sent();
  h.dropped += net.messages_dropped();
  for (const auto& [name, stats] : net.type_stats()) {
    h.msgs_by_type[name] += stats.messages;
  }
  if (sim_s > 0) {
    for (uint32_t m = 0; m < net.machine_count(); ++m) {
      double util = nt::ToSeconds(net.EgressBusyUs(m)) / sim_s;
      h.egress_util_max = std::max(h.egress_util_max, util);
    }
  }
  nt::Round max_round = 0;
  for (nt::ValidatorId v = 0; v < n; ++v) {
    for (nt::Store* s : {c->primary_store(v), c->consensus_store(v)}) {
      if (s != nullptr) {
        h.store_syncs += s->sync_count();
        h.store_records += s->size();
      }
    }
    for (nt::WorkerId w = 0; w < c->config().workers_per_validator; ++w) {
      if (nt::Store* s = c->worker_store(v, w)) {
        h.store_syncs += s->sync_count();
        h.store_records += s->size();
      }
    }
    if (nt::Primary* p = c->primary(v)) {
      max_round = std::max(max_round, p->round());
    }
  }
  if (max_round > 0) {
    h.round_period_ms_sum += sim_s * 1000.0 / static_cast<double>(max_round);
    ++h.round_period_n;
  }
  if (nt::HotStuff* hs = c->hotstuff(0)) {
    h.hs_views += hs->current_view();
  }
  if (nt::Tracer* t = c->tracer()) {
    for (const char* name :
         {"tusk/committed_waves", "tusk/skipped_leaders", "bullshark/committed_waves",
          "bullshark/skipped_anchors", "hotstuff/timeouts", "hotstuff/committed_blocks"}) {
      h.tracer[name] += t->counter(name);
    }
    for (const char* kind : {"header_retry", "cert_reshare", "batch_retry"}) {
      h.tracer[kind] += t->total_retry_rounds(kind);
    }
    h.resubmits += t->counter("tx/resubmits");
  }
  h.abandoned += c->metrics().abandoned_txs();
}

}  // namespace

Span::Span(Layer layer) : open_(Recording()) {
  if (open_) {
    g_stack.push_back({layer, NowSeconds(), 0});
  }
}

Span::~Span() {
  if (open_) {
    Close();
  }
}

void BeginRoot() {
  if (g_stack.empty()) {
    g_stack.push_back({kUnattributed, NowSeconds(), 0});
  }
}

double EndRoot() {
  if (g_stack.size() != 1) {
    return 0;  // No root open (or an unbalanced span; closure reports it).
  }
  const double start = g_stack.back().start;
  Close();
  return NowSeconds() - start;
}

const LayerTotals* Totals() { return g_totals; }
uint64_t Sha256Bytes() { return g_sha256_bytes; }
uint64_t CertCacheLookups() { return g_cache_lookups; }
uint64_t CertCacheHits() { return g_cache_hits; }
uint64_t ExecApplyRejected() { return g_apply_rejected; }
const Harvest& Harvested() { return g_harvest; }

void ResetSpans() {
  for (LayerTotals& t : g_totals) {
    t = LayerTotals();
  }
  g_sha256_bytes = 0;
  g_cache_lookups = 0;
  g_cache_hits = 0;
  g_apply_rejected = 0;
  g_harvest = Harvest();
}

}  // namespace perf

using perf::kCrypto;

extern "C" {

// --- crypto -----------------------------------------------------------------

nt::Digest __real__ZN2nt6Sha2564HashEPKhm(const uint8_t* data, size_t len);
nt::Digest __wrap__ZN2nt6Sha2564HashEPKhm(const uint8_t* data, size_t len) {
  PERF_SPAN(kCrypto);
  perf::g_sha256_bytes += len;
  return __real__ZN2nt6Sha2564HashEPKhm(data, len);
}

void __real__ZN2nt6Sha2566UpdateEPKhm(nt::Sha256* self, const uint8_t* data, size_t len);
void __wrap__ZN2nt6Sha2566UpdateEPKhm(nt::Sha256* self, const uint8_t* data, size_t len) {
  // Update calls are folded into the hash they feed: they add time and bytes
  // but not a call (a one-shot Hash and an Update+Finalize pair both count
  // once, at Hash/Finalize).
  if (!perf::Recording()) {
    __real__ZN2nt6Sha2566UpdateEPKhm(self, data, len);
    return;
  }
  perf::g_stack.push_back({kCrypto, perf::NowSeconds(), 0});
  perf::g_sha256_bytes += len;
  __real__ZN2nt6Sha2566UpdateEPKhm(self, data, len);
  perf::Close(/*count_call=*/false);
}

nt::Digest __real__ZN2nt6Sha2568FinalizeEv(nt::Sha256* self);
nt::Digest __wrap__ZN2nt6Sha2568FinalizeEv(nt::Sha256* self) {
  PERF_SPAN(kCrypto);
  return __real__ZN2nt6Sha2568FinalizeEv(self);
}

// --- types ------------------------------------------------------------------

bool __real__ZNK2nt11Certificate6VerifyERKNS_9CommitteeERKNS_6SignerEPNS_17VerifiedCertCacheE(
    const nt::Certificate* self, const nt::Committee& committee, const nt::Signer& verifier,
    nt::VerifiedCertCache* cache);
bool __wrap__ZNK2nt11Certificate6VerifyERKNS_9CommitteeERKNS_6SignerEPNS_17VerifiedCertCacheE(
    const nt::Certificate* self, const nt::Committee& committee, const nt::Signer& verifier,
    nt::VerifiedCertCache* cache) {
  PERF_SPAN(perf::kCertVerify);
  return __real__ZNK2nt11Certificate6VerifyERKNS_9CommitteeERKNS_6SignerEPNS_17VerifiedCertCacheE(
      self, committee, verifier, cache);
}

bool __real__ZNK2nt4Vote6VerifyERKNS_9CommitteeERKNS_6SignerE(
    const nt::Vote* self, const nt::Committee& committee, const nt::Signer& verifier);
bool __wrap__ZNK2nt4Vote6VerifyERKNS_9CommitteeERKNS_6SignerE(
    const nt::Vote* self, const nt::Committee& committee, const nt::Signer& verifier) {
  PERF_SPAN(perf::kVoteVerify);
  return __real__ZNK2nt4Vote6VerifyERKNS_9CommitteeERKNS_6SignerE(self, committee, verifier);
}

bool __real__ZN2nt17VerifiedCertCache6LookupERKSt5arrayIhLm32EE(nt::VerifiedCertCache* self,
                                                               const nt::Digest& key);
bool __wrap__ZN2nt17VerifiedCertCache6LookupERKSt5arrayIhLm32EE(nt::VerifiedCertCache* self,
                                                               const nt::Digest& key) {
  const bool hit = __real__ZN2nt17VerifiedCertCache6LookupERKSt5arrayIhLm32EE(self, key);
  if (perf::Recording()) {
    ++perf::g_cache_lookups;
    perf::g_cache_hits += hit ? 1 : 0;
  }
  return hit;
}

#define PERF_WRAP_ENCODE(sym, type)                                 \
  void __real_##sym(const type* self, nt::Writer& w);              \
  void __wrap_##sym(const type* self, nt::Writer& w) {             \
    PERF_SPAN(perf::kEncode);                                      \
    __real_##sym(self, w);                                         \
  }
PERF_WRAP_ENCODE(_ZNK2nt11BlockHeader6EncodeERNS_6WriterE, nt::BlockHeader)
PERF_WRAP_ENCODE(_ZNK2nt11Certificate6EncodeERNS_6WriterE, nt::Certificate)
PERF_WRAP_ENCODE(_ZNK2nt4Vote6EncodeERNS_6WriterE, nt::Vote)
PERF_WRAP_ENCODE(_ZNK2nt5Batch6EncodeERNS_6WriterE, nt::Batch)
#undef PERF_WRAP_ENCODE

// --- net --------------------------------------------------------------------

void __real__ZN2nt7Network4SendEjjSt10shared_ptrIKNS_7MessageEE(nt::Network* self, uint32_t src,
                                                                uint32_t dst, nt::MessagePtr msg);
void __wrap__ZN2nt7Network4SendEjjSt10shared_ptrIKNS_7MessageEE(nt::Network* self, uint32_t src,
                                                                uint32_t dst, nt::MessagePtr msg) {
  PERF_SPAN(perf::kNetSend);
  __real__ZN2nt7Network4SendEjjSt10shared_ptrIKNS_7MessageEE(self, src, dst, std::move(msg));
}

// --- sim (the schedule/cancel half; the pop half stays in the root) ----------

uint32_t __real__ZN2nt9Scheduler9AllocSlotEv(nt::Scheduler* self);
uint32_t __wrap__ZN2nt9Scheduler9AllocSlotEv(nt::Scheduler* self) {
  PERF_SPAN(perf::kSim);
  return __real__ZN2nt9Scheduler9AllocSlotEv(self);
}

void __real__ZN2nt9Scheduler8HeapPushERKNS0_9HeapEntryE(nt::Scheduler* self, const void* entry);
void __wrap__ZN2nt9Scheduler8HeapPushERKNS0_9HeapEntryE(nt::Scheduler* self, const void* entry) {
  PERF_SPAN(perf::kSim);
  __real__ZN2nt9Scheduler8HeapPushERKNS0_9HeapEntryE(self, entry);
}

void __real__ZN2nt9Scheduler6CancelEm(nt::Scheduler* self, nt::Scheduler::TimerId id);
void __wrap__ZN2nt9Scheduler6CancelEm(nt::Scheduler* self, nt::Scheduler::TimerId id) {
  PERF_SPAN(perf::kSim);
  __real__ZN2nt9Scheduler6CancelEm(self, id);
}

// --- narwhal ----------------------------------------------------------------

bool __real__ZN2nt3Dag14AddCertificateERKNS_11CertificateE(nt::Dag* self,
                                                           const nt::Certificate& cert);
bool __wrap__ZN2nt3Dag14AddCertificateERKNS_11CertificateE(nt::Dag* self,
                                                           const nt::Certificate& cert) {
  PERF_SPAN(perf::kDagInsert);
  return __real__ZN2nt3Dag14AddCertificateERKNS_11CertificateE(self, cert);
}

void __real__ZN2nt3Dag9AddHeaderESt10shared_ptrIKNS_11BlockHeaderEERKSt5arrayIhLm32EE(
    nt::Dag* self, std::shared_ptr<const nt::BlockHeader> header, const nt::Digest& digest);
void __wrap__ZN2nt3Dag9AddHeaderESt10shared_ptrIKNS_11BlockHeaderEERKSt5arrayIhLm32EE(
    nt::Dag* self, std::shared_ptr<const nt::BlockHeader> header, const nt::Digest& digest) {
  PERF_SPAN(perf::kDagInsert);
  __real__ZN2nt3Dag9AddHeaderESt10shared_ptrIKNS_11BlockHeaderEERKSt5arrayIhLm32EE(
      self, std::move(header), digest);
}

void __real__ZN2nt6Worker17SubmitTransactionEmSt8optionalINS_8TxSampleEE(
    nt::Worker* self, uint64_t size, std::optional<nt::TxSample> sample);
void __wrap__ZN2nt6Worker17SubmitTransactionEmSt8optionalINS_8TxSampleEE(
    nt::Worker* self, uint64_t size, std::optional<nt::TxSample> sample) {
  PERF_SPAN(perf::kWorkerSubmit);
  __real__ZN2nt6Worker17SubmitTransactionEmSt8optionalINS_8TxSampleEE(self, size, sample);
}

void __real__ZN2nt6Worker17SubmitTransactionESt6vectorIhSaIhEESt8optionalINS_8TxSampleEE(
    nt::Worker* self, nt::Bytes payload, std::optional<nt::TxSample> sample);
void __wrap__ZN2nt6Worker17SubmitTransactionESt6vectorIhSaIhEESt8optionalINS_8TxSampleEE(
    nt::Worker* self, nt::Bytes payload, std::optional<nt::TxSample> sample) {
  PERF_SPAN(perf::kWorkerSubmit);
  __real__ZN2nt6Worker17SubmitTransactionESt6vectorIhSaIhEESt8optionalINS_8TxSampleEE(
      self, std::move(payload), sample);
}

// --- exec -------------------------------------------------------------------

nt::ExecStatus __real__ZN2nt14KvStateMachine5ApplyERKSt6vectorIhSaIhEE(nt::KvStateMachine* self,
                                                                      const nt::Bytes& wire_tx);
nt::ExecStatus __wrap__ZN2nt14KvStateMachine5ApplyERKSt6vectorIhSaIhEE(nt::KvStateMachine* self,
                                                                      const nt::Bytes& wire_tx) {
  PERF_SPAN(perf::kExecApply);
  nt::ExecStatus status = __real__ZN2nt14KvStateMachine5ApplyERKSt6vectorIhSaIhEE(self, wire_tx);
  if (perf::Recording() && status != nt::ExecStatus::kApplied) {
    ++perf::g_apply_rejected;
  }
  return status;
}

// --- check (the DST oracles' pure replays) ----------------------------------

nt::TuskReplay __real__ZN2nt10ReplayTuskENS_3DagERKNS_9CommitteeERKNS_13ThresholdCoinEm(
    nt::Dag dag, const nt::Committee& committee, const nt::ThresholdCoin& coin,
    nt::Round gc_depth);
nt::TuskReplay __wrap__ZN2nt10ReplayTuskENS_3DagERKNS_9CommitteeERKNS_13ThresholdCoinEm(
    nt::Dag dag, const nt::Committee& committee, const nt::ThresholdCoin& coin,
    nt::Round gc_depth) {
  PERF_SPAN(perf::kCheckOracle);
  return __real__ZN2nt10ReplayTuskENS_3DagERKNS_9CommitteeERKNS_13ThresholdCoinEm(
      std::move(dag), committee, coin, gc_depth);
}

nt::BullsharkReplay __real__ZN2nt15ReplayBullsharkENS_3DagERKNS_9CommitteeEmNS_15BullsharkConfigE(
    nt::Dag dag, const nt::Committee& committee, nt::Round gc_depth, nt::BullsharkConfig config);
nt::BullsharkReplay __wrap__ZN2nt15ReplayBullsharkENS_3DagERKNS_9CommitteeEmNS_15BullsharkConfigE(
    nt::Dag dag, const nt::Committee& committee, nt::Round gc_depth, nt::BullsharkConfig config) {
  PERF_SPAN(perf::kCheckOracle);
  return __real__ZN2nt15ReplayBullsharkENS_3DagERKNS_9CommitteeEmNS_15BullsharkConfigE(
      std::move(dag), committee, gc_depth, config);
}

using BatchResolver =
    std::function<std::shared_ptr<const nt::Batch>(const nt::BatchRef&)>;
nt::ShardReplay
__real__ZN2nt12ReplayShardsERKSt6vectorISt10shared_ptrIKNS_11BlockHeaderEESaIS4_EEjRKSt8functionIFS1_IKNS_5BatchEERKNS_8BatchRefEEE(
    const std::vector<std::shared_ptr<const nt::BlockHeader>>& ordered, uint32_t lanes,
    const BatchResolver& resolve);
nt::ShardReplay
__wrap__ZN2nt12ReplayShardsERKSt6vectorISt10shared_ptrIKNS_11BlockHeaderEESaIS4_EEjRKSt8functionIFS1_IKNS_5BatchEERKNS_8BatchRefEEE(
    const std::vector<std::shared_ptr<const nt::BlockHeader>>& ordered, uint32_t lanes,
    const BatchResolver& resolve) {
  PERF_SPAN(perf::kCheckOracle);
  return __real__ZN2nt12ReplayShardsERKSt6vectorISt10shared_ptrIKNS_11BlockHeaderEESaIS4_EEjRKSt8functionIFS1_IKNS_5BatchEERKNS_8BatchRefEEE(
      ordered, lanes, resolve);
}

// --- runtime: read every cluster's counters before it goes away --------------

void __real__ZN2nt7ClusterD1Ev(nt::Cluster* self);
void __wrap__ZN2nt7ClusterD1Ev(nt::Cluster* self) {
  perf::HarvestCluster(self);
  __real__ZN2nt7ClusterD1Ev(self);
}

}  // extern "C"

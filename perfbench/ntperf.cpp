// ntperf — the benchmark harness behind perfbench/run.py.
//
//   ntperf --workload NAME --seed N [--seconds S] [--passes P] [--seeds K]
//          [--ladder 0|1]
//
// Runs one workload's simulations (a "pass") repeatedly until S seconds of
// host time are used (at least one pass, or exactly P passes). --seeds runs
// only the first K simulations of the workload's seed list; --ladder 0 skips
// the rate ladder (the traced program never runs it). Checks every
// simulation's outputs, checks that every pass reproduces the first one
// bit for bit, and prints one JSON object on stdout: simulated metrics from
// the first pass, host timings per pass, check counts, and — in the traced
// build (ntperf_traced) — per-layer metrics from the first pass.
//
// Workloads (all open loop, single-threaded):
//   common_tusk_n10       Tusk, 10 validators, WAN, 512 B txs, no faults, at
//                         the 100k tx/s reference rate; a fixed rate ladder
//                         on the first seed gives max_tps_slo.
//   dst_window            RunSchedule over 16 generated fault schedules from
//                         the CI band (every invariant checked).
//   quorum_edge_hs_n7     Narwhal-HS, 7 validators, 2 crashed at t=0, 5% loss,
//                         20k tx/s, clients resubmit.
//   sharded_bullshark_n4  Bullshark, 4 validators, 4 execution lanes,
//                         transfers (20% cross-shard, zipf 0.8), 20k tx/s.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "src/check/checker.h"
#include "src/check/schedule.h"
#include "src/common/stats.h"
#include "src/hotstuff/payload.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/shard/workload.h"

using namespace nt;

namespace {

// --- workload definitions ----------------------------------------------------

struct TxSpec {
  SystemKind system = SystemKind::kTusk;
  uint32_t nodes = 4;
  uint32_t crashed = 0;  // Highest-numbered validators, crashed at t=0.
  double loss = 0;
  double rate = 0;
  TimeDelta duration = Seconds(30);
  TimeDelta warmup = Seconds(5);
  uint64_t sample_rate = 100;
  TimeDelta resubmit_timeout = 0;
  uint32_t shards = 0;
  double cross = 0;
  double zipf = 0;
};

struct Workload {
  std::string name;
  std::vector<TxSpec> ladder;  // Transaction workloads: one spec per rate step.
  size_t reference = 0;        // The ladder step end-to-end metrics come from.
  uint64_t seeds = 1;          // Seeds per pass: N*seeds .. N*seeds+seeds-1.
  uint64_t dst_count = 0;      // dst_window: schedules per pass (see DstSeed).
};

// The DST CI band (ntcheck_fuzz) checks schedules 1..kDstBand on every build.
constexpr uint64_t kDstBand = 64;

// max_tps_slo: a ladder step qualifies when its p99 is at most this and it
// commits at least (1 - kTpsTolerance) of the offered rate.
constexpr double kLatencyLimitS = 10.0;
constexpr double kTpsTolerance = 0.05;

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "common_tusk_n10") {
    for (double rate : {50000.0, 100000.0, 150000.0, 200000.0}) {
      TxSpec s;
      s.system = SystemKind::kTusk;
      s.nodes = 10;
      s.rate = rate;
      s.sample_rate = 20;
      w.ladder.push_back(s);
    }
    w.reference = 1;
    w.seeds = 8;
  } else if (name == "dst_window") {
    w.dst_count = 16;
  } else if (name == "quorum_edge_hs_n7") {
    TxSpec s;
    s.system = SystemKind::kNarwhalHs;
    s.nodes = 7;
    s.crashed = 2;
    s.loss = 0.05;
    s.rate = 20000;
    s.sample_rate = 20;
    s.resubmit_timeout = Seconds(4);
    w.ladder.push_back(s);
    w.seeds = 20;
  } else if (name == "sharded_bullshark_n4") {
    TxSpec s;
    s.system = SystemKind::kBullshark;
    s.nodes = 4;
    s.rate = 20000;
    s.duration = Seconds(12);
    s.warmup = Seconds(4);
    s.sample_rate = 2;
    s.shards = 4;
    s.cross = 0.2;
    s.zipf = 0.8;
    w.ladder.push_back(s);
    w.seeds = 6;
  } else {
    std::fprintf(stderr, "ntperf: unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return w;
}

// --- one simulation ----------------------------------------------------------

struct SimOutcome {
  std::string label;
  double setup_s = 0;
  double wall_s = 0;
  uint64_t event_hash = 0;
  uint64_t events = 0;
  double offered_tps = 0;
  double window_s = 0;
  uint64_t committed_window = 0;  // Committed txs in the window (tps numerator).
  uint64_t committed_all = 0;     // Committed txs over the whole run.
  uint64_t commits = 0;           // Committed headers at the observer.
  std::vector<double> latency;    // Seconds, per sampled transaction.
  uint64_t attempted_tx = 0;      // Sampled (or tracked) transactions.
  uint64_t failed_tx = 0;         // Of those, uncommitted at the end.
  uint64_t exec_applied = 0;
  uint64_t exec_cross = 0;
  uint64_t checks = 0;
  uint64_t failed_checks = 0;
};

void Check(SimOutcome& out, bool ok, const std::string& what) {
  ++out.checks;
  if (!ok) {
    ++out.failed_checks;
    std::fprintf(stderr, "ntperf: CHECK FAILED [%s]: %s\n", out.label.c_str(), what.c_str());
  }
}

// True if every sequence is a prefix of the longest one.
bool PrefixConsistent(const std::vector<std::vector<Digest>>& seqs, std::string* why) {
  const std::vector<Digest>* longest = &seqs[0];
  for (const auto& s : seqs) {
    if (s.size() > longest->size()) {
      longest = &s;
    }
  }
  for (size_t k = 0; k < seqs.size(); ++k) {
    if (!std::equal(seqs[k].begin(), seqs[k].end(), longest->begin())) {
      *why = "validator " + std::to_string(k) + " diverges from the longest sequence";
      return false;
    }
  }
  return true;
}

SimOutcome RunTx(const TxSpec& spec, uint64_t seed) {
  SimOutcome out;
  out.label = std::string(SystemName(spec.system)) + " n=" + std::to_string(spec.nodes) +
              " rate=" + std::to_string(static_cast<uint64_t>(spec.rate)) +
              " seed=" + std::to_string(seed);
  perf::g_sample_ids.clear();
  perf::g_loop_start = 0;
  const double t0 = perf::NowSeconds();

  ClusterConfig config;
  config.system = spec.system;
  config.num_validators = spec.nodes;
  config.seed = seed;
  config.exec_lanes = spec.shards;
  config.narwhal.tx_sample_rate = spec.sample_rate;
  std::unique_ptr<TransferWorkload> workload;
  if (spec.shards > 0) {
    TransferWorkloadConfig wl;
    wl.num_shards = spec.shards;
    wl.cross_ratio = spec.cross;
    wl.zipf_theta = spec.zipf;
    workload = std::make_unique<TransferWorkload>(wl);
  }
  auto cluster = std::make_unique<Cluster>(config);
  const uint32_t n = spec.nodes;
  const uint32_t live = n - spec.crashed;
  for (uint32_t i = 0; i < spec.crashed; ++i) {
    cluster->CrashValidator(n - 1 - i, 0);
  }
  if (spec.loss > 0) {
    cluster->faults().SetLossRate(spec.loss);
  }
  cluster->metrics().set_observer(0);
  cluster->metrics().SetWindow(spec.warmup, spec.duration);

  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (uint32_t v = 0; v < n; ++v) {
    LoadGenerator::Options options;
    options.rate_tps = spec.rate / n;
    options.sample_rate = spec.sample_rate;
    options.stop_at = spec.duration;
    options.resubmit_timeout = spec.resubmit_timeout;
    options.transfer = workload.get();
    clients.push_back(std::make_unique<LoadGenerator>(cluster.get(), v, 0, options));
  }
  if (workload != nullptr) {
    // Fund the accounts right after start, as RunExperiment does.
    std::vector<Bytes> mints = workload->InitialMints();
    Cluster* c = cluster.get();
    cluster->scheduler().ScheduleAt(Millis(1),
                                    [c, mints] { c->worker(0, 0)->SubmitBlock(mints); });
  }

  // Output checks: every live validator's committed header sequence, and with
  // execution lanes the lane digests at each executed height it reached.
  std::vector<std::vector<Digest>> seq(n);
  std::vector<std::map<uint64_t, std::vector<Digest>>> lanes_at(n);
  for (ValidatorId v = 0; v < live; ++v) {
    auto on_commit = [&, v](const Digest& digest, const std::shared_ptr<const BlockHeader>& h) {
      seq[v].push_back(digest);
      if (v == 0) {
        ++out.commits;
        for (const BatchRef& ref : h->batches) {
          out.committed_all += ref.num_txs;
        }
      }
      if (ShardedExecutor* ex = cluster->sharded_executor(v)) {
        lanes_at[v].emplace(ex->executed_headers(), ex->LaneDigests());
      }
    };
    switch (spec.system) {
      case SystemKind::kTusk:
        cluster->tusk(v)->add_on_commit(
            [on_commit](const Tusk::Committed& c) { on_commit(c.digest, c.header); });
        break;
      case SystemKind::kBullshark:
        cluster->bullshark(v)->add_on_commit(
            [on_commit](const Bullshark::Committed& c) { on_commit(c.digest, c.header); });
        break;
      case SystemKind::kNarwhalHs:
        dynamic_cast<NarwhalProvider*>(cluster->provider(v))->add_on_header_commit(on_commit);
        break;
      default:
        std::fprintf(stderr, "ntperf: no commit hook for %s\n", SystemName(spec.system));
        std::exit(2);
    }
  }

  cluster->Start();
  for (auto& client : clients) {
    client->Start();
  }
  cluster->StartExecutorPump(spec.duration);
  cluster->scheduler().RunUntil(spec.duration);
  const double t_end = perf::NowSeconds();
#ifdef NTPERF_TRACED
  perf::EndRoot();
#endif
  out.setup_s = perf::g_loop_start - t0;
  out.wall_s = t_end - perf::g_loop_start;

  const Metrics& m = cluster->metrics();
  out.event_hash = cluster->scheduler().event_hash();
  out.events = cluster->scheduler().events_fired();
  out.offered_tps = spec.rate;
  out.window_s = ToSeconds(spec.duration - spec.warmup);
  out.committed_window = m.committed_txs();
  out.latency = m.latency_seconds().samples();
  out.attempted_tx = perf::g_sample_ids.size();
  for (uint64_t id : perf::g_sample_ids) {
    out.failed_tx += m.IsSampleCommitted(id) ? 0 : 1;
  }
  out.exec_applied = m.exec_applied();
  out.exec_cross = m.exec_cross();

  // Crashed validators never commit, so their empty sequences pass trivially.
  std::string why;
  Check(out, PrefixConsistent(seq, &why), "commit prefix: " + why);
  if (spec.shards > 0) {
    uint64_t compared = 0;
    bool agree = true;
    for (ValidatorId v = 1; v < live; ++v) {
      for (const auto& [height, digests] : lanes_at[v]) {
        auto it = lanes_at[0].find(height);
        if (it != lanes_at[0].end()) {
          ++compared;
          agree = agree && it->second == digests;
        }
      }
    }
    Check(out, agree && compared > 0,
          "lane digests " + std::string(agree ? "never compared" : "disagree"));
    bool conserved = true;
    for (ValidatorId v = 0; v < live; ++v) {
      const ShardedExecutor* ex = cluster->sharded_executor(v);
      conserved = conserved && ex->total_balance() == ex->minted_total();
    }
    Check(out, conserved, "token supply not conserved");
  }
  clients.clear();
  cluster.reset();
  return out;
}

SimOutcome RunDst(uint64_t seed) {
  SimOutcome out;
  out.label = "dst seed=" + std::to_string(seed);
  perf::g_dst.Reset();
  perf::g_dst.active = true;
  perf::g_loop_start = 0;
  const double t0 = perf::NowSeconds();
  FaultSchedule schedule = GenerateSchedule(seed);
  CheckResult result = RunSchedule(schedule);
  const double t_end = perf::NowSeconds();
#ifdef NTPERF_TRACED
  perf::EndRoot();
#endif
  perf::g_dst.active = false;
  out.setup_s = perf::g_loop_start - t0;
  out.wall_s = t_end - perf::g_loop_start;
  out.event_hash = result.event_hash;
  out.events = result.events_fired;
  out.window_s = ToSeconds(schedule.duration);
  out.committed_window = perf::g_dst.committed_txs;
  out.committed_all = perf::g_dst.committed_txs;
  out.commits = result.commits;
  out.latency = perf::g_dst.latency_s;
  out.attempted_tx = perf::g_dst.submitted_txs;
  out.failed_tx = perf::g_dst.submitted_txs - perf::g_dst.committed_txs;
  Check(out, result.ok(), result.Summary());
  perf::g_dst.Reset();
  return out;
}

// --- one pass ------------------------------------------------------------------

struct StepResult {
  double rate = 0;
  double tps = 0;
  double p50 = 0;
  double p99 = 0;
  uint64_t samples = 0;
  bool meets = false;
};

struct PassResult {
  std::vector<SimOutcome> sims;
  double wall_s = 0;
  // Simulated end-to-end metrics (reference step / whole DST window).
  double tps = 0;
  double p50 = 0;
  double p99 = 0;
  uint64_t samples = 0;
  uint64_t attempted_tx = 0;
  uint64_t failed_tx = 0;
  uint64_t checks = 0;
  uint64_t failed_checks = 0;
  std::string fingerprint;  // Everything simulated, for the determinism check.
};

StepResult Summarize(const std::vector<const SimOutcome*>& sims) {
  StepResult r;
  SampleStats lat;
  uint64_t committed = 0;
  double window = 0;
  for (const SimOutcome* s : sims) {
    for (double x : s->latency) {
      lat.Add(x);
    }
    committed += s->committed_window;
    window += s->window_s;
    r.rate = s->offered_tps;
  }
  r.tps = window > 0 ? static_cast<double>(committed) / window : 0;
  r.p50 = lat.Percentile(50);
  r.p99 = lat.Percentile(99);
  r.samples = lat.count();
  r.meets = r.samples > 0 && r.p99 <= kLatencyLimitS && r.tps >= r.rate * (1 - kTpsTolerance);
  return r;
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n == 0 ? 0 : (n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2);
}

// Seeds of a transaction workload's pass for benchmark seed N: a window of
// `count` consecutive simulation seeds, disjoint across N.
uint64_t SimSeed(const Workload& w, uint64_t seed, uint64_t i) { return seed * w.seeds + i; }

// Schedule seeds of dst_window for benchmark seed N: the first dst_count - 1
// schedules of the CI band, which are the same every run, and one more from
// the rest of the band picked by N (N = 1 gives schedules 1..dst_count).
// Contiguous windows elsewhere differ in cost by 2x, so a fixed core keeps
// the figures steady; the picked schedule keeps them a function of N. Every
// schedule comes from the band CI already checks.
uint64_t DstSeed(const Workload& w, uint64_t seed, uint64_t i) {
  return i + 1 < w.dst_count ? i + 1 : w.dst_count + (seed - 1) % (kDstBand - w.dst_count + 1);
}

PassResult RunPass(const Workload& w, uint64_t seed, uint64_t count) {
  PassResult p;
  for (uint64_t i = 0; i < count; ++i) {
    p.sims.push_back(w.dst_count > 0 ? RunDst(DstSeed(w, seed, i))
                                     : RunTx(w.ladder[w.reference], SimSeed(w, seed, i)));
  }
  std::vector<const SimOutcome*> all;
  for (const SimOutcome& s : p.sims) {
    all.push_back(&s);
  }
  // DST schedules differ from one another and each commits only a few dozen
  // transactions, so their samples are pooled. A transaction workload's
  // simulations are seeds of one configuration: report the median
  // simulation, which one seed's unlucky tail cannot move.
  StepResult pooled = Summarize(all);
  p.samples = pooled.samples;
  if (w.dst_count > 0) {
    p.tps = pooled.tps;
    p.p50 = pooled.p50;
    p.p99 = pooled.p99;
  } else {
    std::vector<double> tps, p50, p99;
    for (const SimOutcome* s : all) {
      StepResult r = Summarize({s});
      tps.push_back(r.tps);
      p50.push_back(r.p50);
      p99.push_back(r.p99);
    }
    p.tps = Median(tps);
    p.p50 = Median(p50);
    p.p99 = Median(p99);
  }
  std::ostringstream fp;
  for (const SimOutcome& s : p.sims) {
    p.attempted_tx += s.attempted_tx;
    p.failed_tx += s.failed_tx;
    p.wall_s += s.wall_s;
    p.checks += s.checks;
    p.failed_checks += s.failed_checks;
    fp << s.label << ':' << s.event_hash << ':' << s.events << ':' << s.committed_window << ':'
       << s.committed_all << ':' << s.latency.size() << ':' << s.failed_tx << ';';
  }
  fp.precision(17);
  fp << p.tps << ':' << p.p50 << ':' << p.p99;
  p.fingerprint = fp.str();
  return p;
}

// The rate ladder behind max_tps_slo, on the pass's first simulation seed
// (`reference` is that seed's simulation at the reference rate, already run).
std::vector<StepResult> RunLadder(const Workload& w, uint64_t seed, const SimOutcome& reference,
                                  uint64_t* checks, uint64_t* failed_checks) {
  std::vector<StepResult> ladder;
  for (size_t step = 0; step < w.ladder.size(); ++step) {
    if (step == w.reference) {
      ladder.push_back(Summarize({&reference}));
      continue;
    }
    SimOutcome sim = RunTx(w.ladder[step], SimSeed(w, seed, 0));
    *checks += sim.checks;
    *failed_checks += sim.failed_checks;
    ladder.push_back(Summarize({&sim}));
  }
  return ladder;
}

// --- output --------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string List(const std::vector<double>& xs) {
  std::string s = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    s += (i ? "," : "") + Num(xs[i]);
  }
  return s + "]";
}

#ifdef NTPERF_TRACED
// Per-layer metrics of the first pass, as "name": value pairs.
std::string LayerJson(const PassResult& pass, double traced_wall) {
  const perf::LayerTotals* t = perf::Totals();
  const perf::Harvest& h = perf::Harvested();
  uint64_t commits = 0;
  uint64_t committed = 0;
  uint64_t applied = 0;
  uint64_t cross = 0;
  for (const SimOutcome& s : pass.sims) {
    commits += s.commits;
    committed += s.committed_all;
    applied += s.exec_applied;
    cross += s.exec_cross;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto tracer = [&h](const char* name) -> double {
    auto it = h.tracer.find(name);
    return it == h.tracer.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto msgs = [&h](const char* type) -> double {
    auto it = h.msgs_by_type.find(type);
    return it == h.msgs_by_type.end() ? 0.0 : static_cast<double>(it->second);
  };
  double covered = 0;
  for (int l = 0; l < perf::kLayerCount; ++l) {
    covered += t[l].self_s;
  }
  const uint64_t apply_calls = t[perf::kExecApply].calls;
  std::vector<std::pair<std::string, double>> m = {
      {"sim.events", static_cast<double>(h.events)},
      {"sim.self_s", t[perf::kSim].self_s},
      {"net.msgs_per_ktx", ratio(static_cast<double>(h.msgs), committed / 1000.0)},
      {"net.msgs.header", msgs("Header")},
      {"net.msgs.vote", msgs("Vote")},
      {"net.msgs.certificate", msgs("Certificate")},
      {"net.msgs.cert_request", msgs("CertRequest")},
      {"net.msgs.batch_request", msgs("BatchRequest")},
      {"net.msgs.hs_proposal", msgs("HsProposal")},
      {"net.msgs.hs_vote", msgs("HsVote")},
      {"net.msgs.hs_timeout", msgs("HsTimeout")},
      {"net.bytes_per_tx", ratio(static_cast<double>(h.bytes), static_cast<double>(committed))},
      {"net.egress_util_max", h.egress_util_max},
      {"net.send_calls", static_cast<double>(t[perf::kNetSend].calls)},
      {"net.send_self_s", t[perf::kNetSend].self_s},
      {"net.dropped", static_cast<double>(h.dropped)},
      {"crypto.sha256_calls", static_cast<double>(t[perf::kCrypto].calls)},
      {"crypto.sha256_bytes", static_cast<double>(perf::Sha256Bytes())},
      {"crypto.sha256_self_s", t[perf::kCrypto].self_s},
      {"crypto.sha256_share", ratio(t[perf::kCrypto].self_s, traced_wall)},
      {"types.cert_verify_calls", static_cast<double>(t[perf::kCertVerify].calls)},
      {"types.cert_verify_self_s", t[perf::kCertVerify].self_s},
      {"types.vote_verify_calls", static_cast<double>(t[perf::kVoteVerify].calls)},
      {"types.vote_verify_self_s", t[perf::kVoteVerify].self_s},
      {"types.cert_cache_hit_ratio", ratio(static_cast<double>(perf::CertCacheHits()),
                                           static_cast<double>(perf::CertCacheLookups()))},
      {"types.encode_calls", static_cast<double>(t[perf::kEncode].calls)},
      {"types.encode_self_s", t[perf::kEncode].self_s},
      {"store.syncs_per_commit",
       ratio(static_cast<double>(h.store_syncs), static_cast<double>(commits))},
      {"store.records", static_cast<double>(h.store_records)},
      {"narwhal.round_period_ms",
       ratio(h.round_period_ms_sum, static_cast<double>(h.round_period_n))},
      {"narwhal.header_retry_rounds", tracer("header_retry")},
      {"narwhal.cert_reshare_rounds", tracer("cert_reshare")},
      {"narwhal.batch_retry_rounds", tracer("batch_retry")},
      {"narwhal.dag_insert_self_s", t[perf::kDagInsert].self_s},
      {"narwhal.worker_submit_self_s", t[perf::kWorkerSubmit].self_s},
      {"tusk.committed_waves", tracer("tusk/committed_waves")},
      {"tusk.skipped_leaders", tracer("tusk/skipped_leaders")},
      {"bullshark.committed_waves", tracer("bullshark/committed_waves")},
      {"bullshark.skipped_anchors", tracer("bullshark/skipped_anchors")},
      {"hotstuff.timeouts", tracer("hotstuff/timeouts")},
      {"hotstuff.views", static_cast<double>(h.hs_views)},
      {"hotstuff.committed_blocks", tracer("hotstuff/committed_blocks")},
      {"exec.apply_calls", static_cast<double>(apply_calls)},
      {"exec.apply_self_s", t[perf::kExecApply].self_s},
      {"exec.rejected_ratio", ratio(static_cast<double>(perf::ExecApplyRejected()),
                                    static_cast<double>(apply_calls))},
      {"exec.cross_frac", ratio(static_cast<double>(cross), static_cast<double>(applied))},
      {"runtime.resubmits", static_cast<double>(h.resubmits)},
      {"runtime.abandoned", static_cast<double>(h.abandoned)},
      {"runtime.submit_self_s", t[perf::kRuntimeSubmit].self_s},
      {"runtime.unattributed_s", t[perf::kUnattributed].self_s},
      {"check.oracle_self_s", t[perf::kCheckOracle].self_s},
      {"trace.wall_s", traced_wall},
      {"trace.closure_err", ratio(std::abs(covered - traced_wall), traced_wall)},
  };
  std::string s = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    s += (i ? ",\"" : "\"") + m[i].first + "\":" + Num(m[i].second);
  }
  return s + "}";
}
#endif

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "ntperf: %s\n(see the header of perfbench/ntperf.cpp for flags)\n", msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 0;
  int passes = 0;
  uint64_t count = 0;
  bool ladder_on = true;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--passes") {
      passes = std::atoi(value);
    } else if (flag == "--seeds") {
      count = std::strtoull(value, nullptr, 10);
    } else if (flag == "--ladder") {
      ladder_on = std::atoi(value) != 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload_name.empty()) {
    Usage("--workload is required");
  }
  const Workload w = MakeWorkload(workload_name);
  if (count == 0) {
    count = w.dst_count > 0 ? w.dst_count : w.seeds;
  }
#ifdef NTPERF_TRACED
  ladder_on = false;
#endif

  const double start = perf::NowSeconds();
  std::vector<PassResult> results;
  std::vector<StepResult> ladder_steps;
  uint64_t checks = 0;
  uint64_t failed_checks = 0;
#ifdef NTPERF_TRACED
  std::string layers;
#endif
  for (;;) {
#ifdef NTPERF_TRACED
    perf::ResetSpans();
#endif
    results.push_back(RunPass(w, seed, count));
#ifdef NTPERF_TRACED
    if (results.size() == 1) {
      layers = LayerJson(results[0], results[0].wall_s);
    }
#endif
    if (results.size() == 1 && ladder_on && w.ladder.size() > 1) {
      ladder_steps = RunLadder(w, seed, results[0].sims[0], &checks, &failed_checks);
    }
    const double elapsed = perf::NowSeconds() - start;
    const double per_pass = elapsed / static_cast<double>(results.size());
    if (passes > 0 ? static_cast<int>(results.size()) >= passes
                   : elapsed + per_pass > seconds) {
      break;
    }
  }

  const PassResult& first = results[0];
  std::vector<double> wall;
  std::vector<double> setup;
  for (size_t i = 0; i < results.size(); ++i) {
    const PassResult& p = results[i];
    checks += p.checks + (i > 0 ? 1 : 0);
    failed_checks += p.failed_checks;
    if (i > 0 && p.fingerprint != first.fingerprint) {
      ++failed_checks;
      std::fprintf(stderr, "ntperf: CHECK FAILED [determinism]: pass %zu differs from pass 1\n",
                   i + 1);
    }
    wall.push_back(p.wall_s);
    for (const SimOutcome& sim : p.sims) {
      setup.push_back(sim.setup_s);
    }
  }
  // Per-simulation outcomes of the first pass (run.py takes medians of them).
  std::string per_sim = "[";
  for (size_t i = 0; i < first.sims.size(); ++i) {
    const SimOutcome& sim = first.sims[i];
    StepResult r = Summarize({&sim});
    per_sim += std::string(i ? "," : "") + "{\"tps\":" + Num(r.tps) + ",\"p50\":" + Num(r.p50) +
               ",\"p99\":" + Num(r.p99) + ",\"samples\":" + std::to_string(r.samples) +
               ",\"events\":" + std::to_string(sim.events) + ",\"wall_s\":" + Num(sim.wall_s) +
               "}";
  }
  per_sim += "]";
  std::string hashes = "[";
  for (size_t i = 0; i < first.sims.size(); ++i) {
    hashes += (i ? ",\"" : "\"") + first.sims[i].label + " " +
              std::to_string(first.sims[i].event_hash) + "\"";
  }
  hashes += "]";
  std::string ladder = "[";
  for (size_t i = 0; i < ladder_steps.size(); ++i) {
    const StepResult& s = ladder_steps[i];
    ladder += std::string(i ? "," : "") + "{\"rate\":" + Num(s.rate) + ",\"tps\":" + Num(s.tps) +
              ",\"p50\":" + Num(s.p50) + ",\"p99\":" + Num(s.p99) +
              ",\"samples\":" + std::to_string(s.samples) +
              ",\"meets\":" + (s.meets ? "true" : "false") + "}";
  }
  ladder += "]";

  std::printf("{\"workload\":\"%s\",\"passes\":%zu,\"tps\":%s,\"latency_p50_s\":%s,"
              "\"latency_p99_s\":%s,\"latency_samples\":%llu,\"attempted_tx\":%llu,"
              "\"failed_tx\":%llu,\"checks\":%llu,\"failed_checks\":%llu,\"wall_s\":%s,"
              "\"setup_s\":%s,\"peak_rss_mb\":%s,\"ladder\":%s,\"latency_limit_s\":%s,"
              "\"tps_tolerance\":%s,\"event_hashes\":%s,\"sims\":%s",
              w.name.c_str(), results.size(), Num(first.tps).c_str(), Num(first.p50).c_str(),
              Num(first.p99).c_str(), static_cast<unsigned long long>(first.samples),
              static_cast<unsigned long long>(first.attempted_tx),
              static_cast<unsigned long long>(first.failed_tx),
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(failed_checks), List(wall).c_str(),
              List(setup).c_str(), Num(PeakRssMb()).c_str(), ladder.c_str(),
              Num(kLatencyLimitS).c_str(), Num(kTpsTolerance).c_str(), hashes.c_str(), per_sim.c_str());
#ifdef NTPERF_TRACED
  std::printf(",\"layers\":%s", layers.c_str());
#endif
  std::printf("}\n");
  return failed_checks == 0 ? 0 : 1;
}

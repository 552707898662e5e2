// Shared helpers for the figure/table reproduction binaries: multi-run
// averaging with error bars (the paper averages 2 runs and reports one
// standard deviation) and banner printing.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

#include "src/common/stats.h"
#include "src/runtime/experiment.h"

namespace nt {

struct AveragedResult {
  ExperimentResult first;  // Representative run (for metadata fields).
  double tps_mean = 0;
  double tps_stddev = 0;
  double latency_mean = 0;
  double latency_stddev = 0;
  double p99_mean = 0;
};

// Runs the experiment `runs` times with distinct seeds and averages.
inline AveragedResult RunAveraged(ExperimentParams params, int runs) {
  AveragedResult out;
  SampleStats tps, latency, p99;
  for (int i = 0; i < runs; ++i) {
    params.seed = params.seed + i;
    ExperimentResult r = RunExperiment(params);
    if (i == 0) {
      out.first = r;
    }
    tps.Add(r.tps);
    latency.Add(r.avg_latency_s);
    p99.Add(r.p99_latency_s);
  }
  out.tps_mean = tps.Mean();
  out.tps_stddev = tps.StdDev();
  out.latency_mean = latency.Mean();
  out.latency_stddev = latency.StdDev();
  out.p99_mean = p99.Mean();
  return out;
}

inline void PrintBanner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintSweepHeader() {
  std::printf("%-12s %6s %8s %7s %10s | %10s %8s | %9s %8s %9s | %10s %10s %9s | %10s %8s %10s\n",
              "system", "nodes", "workers", "faults", "input_tps", "tps", "tps_sd", "avg_lat_s",
              "lat_sd", "p99_lat_s", "cert_hits", "cert_miss", "abandoned", "exec_appl",
              "exec_rej", "exec_cross");
}

inline void PrintSweepRow(const AveragedResult& r) {
  std::printf(
      "%-12s %6u %8u %7u %10.0f | %10.0f %8.0f | %9.2f %8.2f %9.2f | %10llu %10llu %9llu | "
      "%10llu %8llu %10llu\n",
      r.first.system.c_str(), r.first.nodes, r.first.workers, r.first.faults, r.first.input_tps,
      r.tps_mean, r.tps_stddev, r.latency_mean, r.latency_stddev, r.p99_mean,
      static_cast<unsigned long long>(r.first.cert_cache_hits),
      static_cast<unsigned long long>(r.first.cert_cache_misses),
      static_cast<unsigned long long>(r.first.abandoned_txs),
      static_cast<unsigned long long>(r.first.exec_applied),
      static_cast<unsigned long long>(r.first.exec_rejected),
      static_cast<unsigned long long>(r.first.exec_cross));
  std::fflush(stdout);
}

}  // namespace nt

#endif  // BENCH_BENCH_UTIL_H_

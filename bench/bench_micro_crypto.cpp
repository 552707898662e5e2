// Micro-benchmarks for the crypto substrate (google-benchmark): SHA-2,
// Ed25519, the FastSigner used in protocol simulations, and the coin. These
// are the §6 "implementation" costs — the data-path rates that inform the
// simulator's processing model.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/crypto/coin.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/hash.h"
#include "src/crypto/sha256_blocks.h"
#include "src/crypto/signer.h"

namespace nt {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(64 * 1024)->Arg(512 * 1024);

// The two compression kernels alone, over the same byte counts as BM_Sha256
// (no padding block): the hardware speedup in isolation from dispatch.
void Sha256Kernel(benchmark::State& state,
                  void (*compress)(uint32_t*, const uint8_t*, size_t)) {
  Bytes data(state.range(0), 0xab);
  uint32_t words[8] = {};
  for (auto _ : state) {
    compress(words, data.data(), data.size() / 64);
    benchmark::DoNotOptimize(words);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_Sha256Scalar(benchmark::State& state) {
  Sha256Kernel(state, sha256_blocks::CompressScalar);
}
BENCHMARK(BM_Sha256Scalar)->Arg(64)->Arg(1024)->Arg(64 * 1024);

#if defined(__x86_64__) || defined(__i386__)
void BM_Sha256ShaNi(benchmark::State& state) {
  if (!sha256_blocks::HasShaNi()) {
    state.SkipWithError("CPU lacks SHA-NI");
    return;
  }
  Sha256Kernel(state, sha256_blocks::CompressShaNi);
}
BENCHMARK(BM_Sha256ShaNi)->Arg(64)->Arg(1024)->Arg(64 * 1024);
#endif

void BM_Sha512(benchmark::State& state) {
  Bytes data(state.range(0), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(64 * 1024);

void BM_Ed25519Sign(benchmark::State& state) {
  Ed25519Seed seed{};
  seed[0] = 1;
  Bytes msg(64, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Sign(seed, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  Ed25519Seed seed{};
  seed[0] = 2;
  Ed25519PublicKey pk = Ed25519Public(seed);
  Bytes msg(64, 7);
  Ed25519Signature sig = Ed25519Sign(seed, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Verify(pk, msg, sig));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ed25519Verify);

void BM_FastSignerSign(benchmark::State& state) {
  auto signer = MakeSigner(SignerKind::kFast, DeriveSeed(1, 0));
  Bytes msg(64, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->Sign(msg));
  }
}
BENCHMARK(BM_FastSignerSign);

void BM_FastSignerVerify(benchmark::State& state) {
  auto signer = MakeSigner(SignerKind::kFast, DeriveSeed(1, 0));
  Bytes msg(64, 7);
  Signature sig = signer->Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->Verify(signer->public_key(), msg, sig));
  }
}
BENCHMARK(BM_FastSignerVerify);

void BM_CommonCoin(benchmark::State& state) {
  CommonCoin coin(7);
  uint64_t wave = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coin.LeaderOf(++wave, 50));
  }
}
BENCHMARK(BM_CommonCoin);

}  // namespace
}  // namespace nt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

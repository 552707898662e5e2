// SHA-256 compression kernels behind `Sha256` (internal header).
//
// `Sha256` picks one kernel at first use — SHA-NI when the CPU has it, the
// portable loop otherwise — and every caller goes through that choice. This
// header exposes both kernels and the CPU check so tests can compare them on
// any host and the micro-benchmark can time them apart. It is not a switch:
// nothing outside tests and benchmarks calls these directly.
#ifndef SRC_CRYPTO_SHA256_BLOCKS_H_
#define SRC_CRYPTO_SHA256_BLOCKS_H_

#include <cstddef>
#include <cstdint>

namespace nt::sha256_blocks {

// Both kernels fold `blocks` consecutive 64-byte blocks at `data` into
// `state` (the eight working words H0..H7, host order).
void CompressScalar(uint32_t state[8], const uint8_t* data, size_t blocks);

#if defined(__x86_64__) || defined(__i386__)
// Requires HasShaNi(); executing it on a CPU without SHA-NI faults.
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);
#endif

// CPUID: SHA extensions (leaf 7 EBX bit 29) plus the SSSE3 and SSE4.1
// shuffles the SHA-NI kernel uses. Always false off x86.
bool HasShaNi();

}  // namespace nt::sha256_blocks

#endif  // SRC_CRYPTO_SHA256_BLOCKS_H_

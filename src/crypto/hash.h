// SHA-256 and SHA-512 (FIPS 180-4), implemented from scratch.
//
// The round constants and initial hash values are *derived* at first use from
// their definition — the fractional parts of the cube/square roots of the
// first primes — using exact multi-word integer arithmetic, rather than being
// transcribed as literal tables. Known-answer tests pin the results to the
// NIST vectors.
//
// SHA-256 has two compression kernels: the x86 SHA extensions (SHA-NI) and a
// portable scalar loop. The first Sha256 picks one through CPUID and every
// later one uses it; both read the same derived round constants, and tests
// check that they agree (src/crypto/sha256_blocks.h). SHA-512 is scalar only.
#ifndef SRC_CRYPTO_HASH_H_
#define SRC_CRYPTO_HASH_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace nt {

// A 32-byte content digest (SHA-256 output). Used as the identifier of
// batches, headers, and certificates throughout the protocol stack.
using Digest = std::array<uint8_t, 32>;

// Hash of a digest for unordered containers: the XOR of its four 64-bit
// words, with no further mixing. That spreads keys well only when they are
// real SHA-256 outputs. Not every key is: a digest a peer names without the
// content (a batch reference in a header, the digest a worker stores a
// peer's batch under) can be chosen to share a bucket with others, which
// slows lookups in that container but changes no result. Containers keyed
// this way iterate in an order that must never reach a message, a store
// write, a hash or a log line (ntlint R2).
struct DigestHash {
  size_t operator()(const Digest& d) const noexcept {
    uint64_t w[4];
    std::memcpy(w, d.data(), sizeof(w));
    return static_cast<size_t>(w[0] ^ w[1] ^ w[2] ^ w[3]);
  }
};

std::string DigestHex(const Digest& d);
// First 8 hex chars — for logs.
std::string DigestShort(const Digest& d);

// Streaming SHA-256.
class Sha256 {
 public:
  Sha256();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) { Update(reinterpret_cast<const uint8_t*>(s.data()), s.size()); }
  Digest Finalize();

  static Digest Hash(const uint8_t* data, size_t len);
  static Digest Hash(const Bytes& data) { return Hash(data.data(), data.size()); }
  static Digest Hash(std::string_view s) {
    return Hash(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

 private:
  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  uint64_t total_len_ = 0;
  size_t buffer_len_ = 0;
};

// Streaming SHA-512.
class Sha512 {
 public:
  using Output = std::array<uint8_t, 64>;

  Sha512();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) { Update(reinterpret_cast<const uint8_t*>(s.data()), s.size()); }
  Output Finalize();

  static Output Hash(const uint8_t* data, size_t len);
  static Output Hash(const Bytes& data) { return Hash(data.data(), data.size()); }

 private:
  void ProcessBlock(const uint8_t* block);

  std::array<uint64_t, 8> state_;
  std::array<uint8_t, 128> buffer_;
  // 128-bit message length; low word is enough for any input we hash.
  uint64_t total_len_ = 0;
  size_t buffer_len_ = 0;
};

}  // namespace nt

#endif  // SRC_CRYPTO_HASH_H_

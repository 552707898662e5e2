// Ed25519 signatures (RFC 8032), implemented from scratch:
//  - field arithmetic over GF(2^255 - 19) with 5x51-bit limbs,
//  - twisted-Edwards group operations in extended coordinates: the complete
//    unified addition law plus dedicated doubling (4S+4M) and cached-operand
//    addition formula for table-driven scalar multiplication,
//  - scalar arithmetic modulo the group order L (word-folding reduction via
//    2^252 == -delta mod L),
//  - key generation, signing, and strict *cofactored* verification: rejects
//    S >= L and checks [8]([S]B - R - [k]A) == identity (the RFC 8032
//    "[8][S]B == [8]R + [8][k]A" variant),
//  - a precomputed radix-16 window table for the base point (fixed-base
//    scalar multiplication in ~64 additions, no doublings).
//
// Curve constants (d = -121665/121666, sqrt(-1), the base point from
// y = 4/5) are derived at startup with field operations instead of being
// transcribed, and pinned by known-answer tests.
#ifndef SRC_CRYPTO_ED25519_H_
#define SRC_CRYPTO_ED25519_H_

#include <array>
#include <cstdint>

#include "src/common/bytes.h"

namespace nt {

using Ed25519Seed = std::array<uint8_t, 32>;
using Ed25519PublicKey = std::array<uint8_t, 32>;
using Ed25519Signature = std::array<uint8_t, 64>;

// Derives the public key for a 32-byte seed (the RFC 8032 private key).
Ed25519PublicKey Ed25519Public(const Ed25519Seed& seed);

// Signs `msg` with the expanded key of `seed`. Deterministic (RFC 8032).
Ed25519Signature Ed25519Sign(const Ed25519Seed& seed, const uint8_t* msg, size_t len);
inline Ed25519Signature Ed25519Sign(const Ed25519Seed& seed, const Bytes& msg) {
  return Ed25519Sign(seed, msg.data(), msg.size());
}

// Verifies a signature. Strict about encodings — rejects non-canonical S
// (S >= L) and non-decodable points — and cofactored about the group
// equation, so small-order components of R or A do not change the verdict.
bool Ed25519Verify(const Ed25519PublicKey& pk, const uint8_t* msg, size_t len,
                   const Ed25519Signature& sig);
inline bool Ed25519Verify(const Ed25519PublicKey& pk, const Bytes& msg,
                          const Ed25519Signature& sig) {
  return Ed25519Verify(pk, msg.data(), msg.size(), sig);
}

// --- Introspection hooks used by tests -------------------------------------

// Multiplies the base point by a little-endian 256-bit scalar and returns the
// compressed encoding. Exposed so tests can check [L]B == identity and the
// distributive law of scalar multiplication.
Ed25519PublicKey Ed25519ScalarMultBase(const std::array<uint8_t, 32>& scalar);

// Returns true iff `encoded` decodes to a point on the curve.
bool Ed25519PointOnCurve(const std::array<uint8_t, 32>& encoded);

// The group order L as 32 little-endian bytes.
std::array<uint8_t, 32> Ed25519GroupOrder();

}  // namespace nt

#endif  // SRC_CRYPTO_ED25519_H_

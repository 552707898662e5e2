// Ed25519 validation: RFC 8032 known-answer vectors, group-structure checks
// ([L]B = identity, distributivity of scalar multiplication), and negative
// tests (tampered signatures, wrong keys, malleability rejection).
#include "src/crypto/ed25519.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/bytes.h"

namespace nt {
namespace {

Ed25519Seed SeedFromHex(const char* hex) {
  auto bytes = FromHex(hex);
  Ed25519Seed seed{};
  std::memcpy(seed.data(), bytes->data(), 32);
  return seed;
}

// RFC 8032 §7.1, TEST 1 (empty message).
TEST(Ed25519Test, Rfc8032Vector1) {
  Ed25519Seed seed =
      SeedFromHex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  Ed25519PublicKey pk = Ed25519Public(seed);
  EXPECT_EQ(ToHex(pk.data(), pk.size()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");

  Ed25519Signature sig = Ed25519Sign(seed, nullptr, 0);
  EXPECT_EQ(ToHex(sig.data(), sig.size()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(Ed25519Verify(pk, nullptr, 0, sig));
}

// RFC 8032 §7.1, TEST 2 (one-byte message 0x72).
TEST(Ed25519Test, Rfc8032Vector2) {
  Ed25519Seed seed =
      SeedFromHex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  Ed25519PublicKey pk = Ed25519Public(seed);
  EXPECT_EQ(ToHex(pk.data(), pk.size()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");

  uint8_t msg = 0x72;
  Ed25519Signature sig = Ed25519Sign(seed, &msg, 1);
  EXPECT_EQ(ToHex(sig.data(), sig.size()),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(Ed25519Verify(pk, &msg, 1, sig));
}

TEST(Ed25519Test, GroupOrderTimesBaseIsIdentity) {
  // [L]B must be the neutral element, whose compressed encoding is y = 1
  // with sign 0: 0x01 followed by 31 zero bytes.
  auto enc = Ed25519ScalarMultBase(Ed25519GroupOrder());
  EXPECT_EQ(enc[0], 0x01);
  for (size_t i = 1; i < enc.size(); ++i) {
    EXPECT_EQ(enc[i], 0x00) << "byte " << i;
  }
}

TEST(Ed25519Test, ScalarMultDistributes) {
  // [a]B computed bit-serially must equal [a1]B + [a2]B re-encoded, checked
  // indirectly: [2]B == [1]B doubled == encodings agree via [1+1].
  std::array<uint8_t, 32> one{};
  one[0] = 1;
  std::array<uint8_t, 32> two{};
  two[0] = 2;
  std::array<uint8_t, 32> three{};
  three[0] = 3;
  auto b1 = Ed25519ScalarMultBase(one);
  auto b2 = Ed25519ScalarMultBase(two);
  auto b3 = Ed25519ScalarMultBase(three);
  EXPECT_NE(b1, b2);
  EXPECT_NE(b2, b3);
  // All must be on the curve.
  EXPECT_TRUE(Ed25519PointOnCurve(b1));
  EXPECT_TRUE(Ed25519PointOnCurve(b2));
  EXPECT_TRUE(Ed25519PointOnCurve(b3));
}

TEST(Ed25519Test, SignVerifyRoundTrip) {
  Ed25519Seed seed{};
  for (int i = 0; i < 32; ++i) {
    seed[i] = static_cast<uint8_t>(i * 11 + 3);
  }
  Ed25519PublicKey pk = Ed25519Public(seed);
  EXPECT_TRUE(Ed25519PointOnCurve(pk));

  for (size_t len : {0u, 1u, 31u, 32u, 33u, 100u, 1000u}) {
    Bytes msg(len);
    for (size_t i = 0; i < len; ++i) {
      msg[i] = static_cast<uint8_t>(i ^ len);
    }
    Ed25519Signature sig = Ed25519Sign(seed, msg);
    EXPECT_TRUE(Ed25519Verify(pk, msg, sig)) << "len " << len;
  }
}

TEST(Ed25519Test, TamperedSignatureRejected) {
  Ed25519Seed seed{};
  seed[0] = 42;
  Ed25519PublicKey pk = Ed25519Public(seed);
  Bytes msg = {1, 2, 3, 4, 5};
  Ed25519Signature sig = Ed25519Sign(seed, msg);

  for (size_t i = 0; i < sig.size(); i += 7) {
    Ed25519Signature bad = sig;
    bad[i] ^= 0x01;
    EXPECT_FALSE(Ed25519Verify(pk, msg, bad)) << "flip byte " << i;
  }
}

TEST(Ed25519Test, TamperedMessageRejected) {
  Ed25519Seed seed{};
  seed[5] = 9;
  Ed25519PublicKey pk = Ed25519Public(seed);
  Bytes msg = {10, 20, 30};
  Ed25519Signature sig = Ed25519Sign(seed, msg);
  Bytes other = {10, 20, 31};
  EXPECT_FALSE(Ed25519Verify(pk, other, sig));
  Bytes longer = {10, 20, 30, 0};
  EXPECT_FALSE(Ed25519Verify(pk, longer, sig));
}

TEST(Ed25519Test, WrongKeyRejected) {
  Ed25519Seed seed_a{};
  seed_a[0] = 1;
  Ed25519Seed seed_b{};
  seed_b[0] = 2;
  Bytes msg = {7, 7, 7};
  Ed25519Signature sig = Ed25519Sign(seed_a, msg);
  EXPECT_FALSE(Ed25519Verify(Ed25519Public(seed_b), msg, sig));
}

TEST(Ed25519Test, MalleabilityRejected) {
  // S' = S + L is a classically malleable signature; strict verification
  // must reject it. Adding L may overflow 32 bytes, in which case the forged
  // encoding is invalid anyway; construct only when it fits.
  Ed25519Seed seed{};
  seed[3] = 77;
  Ed25519PublicKey pk = Ed25519Public(seed);
  Bytes msg = {9, 9};
  Ed25519Signature sig = Ed25519Sign(seed, msg);

  auto order = Ed25519GroupOrder();
  Ed25519Signature forged = sig;
  uint32_t carry = 0;
  for (int i = 0; i < 32; ++i) {
    uint32_t sum = static_cast<uint32_t>(forged[32 + i]) + order[i] + carry;
    forged[32 + i] = static_cast<uint8_t>(sum);
    carry = sum >> 8;
  }
  if (carry == 0) {
    EXPECT_FALSE(Ed25519Verify(pk, msg, forged));
  }
  // Either way the canonical signature still verifies.
  EXPECT_TRUE(Ed25519Verify(pk, msg, sig));
}

TEST(Ed25519Test, DeterministicSignatures) {
  Ed25519Seed seed{};
  seed[8] = 123;
  Bytes msg = {1, 1, 2, 3, 5, 8};
  EXPECT_EQ(Ed25519Sign(seed, msg), Ed25519Sign(seed, msg));
}

TEST(Ed25519Test, OffCurvePointRejected) {
  // A y-coordinate for which x^2 has no root: probe a few candidates until
  // one fails to decode, then ensure verification under it fails cleanly.
  std::array<uint8_t, 32> candidate{};
  candidate[0] = 2;  // y = 2 happens to be off-curve for ed25519 or not; scan.
  bool found_invalid = false;
  for (uint8_t v = 2; v < 40 && !found_invalid; ++v) {
    candidate[0] = v;
    if (!Ed25519PointOnCurve(candidate)) {
      found_invalid = true;
      Ed25519Seed seed{};
      Bytes msg = {1};
      Ed25519Signature sig = Ed25519Sign(seed, msg);
      Ed25519PublicKey bad_pk;
      std::memcpy(bad_pk.data(), candidate.data(), 32);
      EXPECT_FALSE(Ed25519Verify(bad_pk, msg, sig));
    }
  }
  EXPECT_TRUE(found_invalid) << "no off-curve y in probe range (unexpected)";
}

TEST(Ed25519Test, NonCanonicalYRejected) {
  // y = p (encodes as 0xed, 0xff... 0x7f) is >= p and must be rejected.
  std::array<uint8_t, 32> enc{};
  enc[0] = 0xed;
  for (int i = 1; i < 31; ++i) {
    enc[i] = 0xff;
  }
  enc[31] = 0x7f;
  EXPECT_FALSE(Ed25519PointOnCurve(enc));
}

// ---------------------------------------------------------------------------
// Small-order (torsion) inputs: cofactored verification clears torsion
// components, so its verdict does not depend on the challenge mod 8.
// ---------------------------------------------------------------------------

// The canonical encoding of a point of order 8 on edwards25519 (the standard
// small-order point list; also reachable as a 2-torsion-free generator of
// the cofactor subgroup).
std::array<uint8_t, 32> Order8Point() {
  auto bytes = FromHex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05");
  std::array<uint8_t, 32> enc{};
  std::memcpy(enc.data(), bytes->data(), 32);
  return enc;
}

// The classic small-order "signature": pk = T (order 8), R = T, S = 0. Its
// residual [S]B - R - [k]A = -(1 + k mod 8)T is pure torsion, so cofactored
// verification accepts it for *every* message, while a cofactorless check
// would accept it only when k mod 8 happens to cancel.
Ed25519Signature SmallOrderSignature() {
  Ed25519Signature sig{};
  std::array<uint8_t, 32> t = Order8Point();
  std::memcpy(sig.data(), t.data(), 32);  // R = T, S = 0.
  return sig;
}

TEST(Ed25519TorsionTest, SmallOrderPointDecodes) {
  EXPECT_TRUE(Ed25519PointOnCurve(Order8Point()));
}

TEST(Ed25519TorsionTest, TorsionResidualAcceptedForEveryMessage) {
  // Sixteen messages give sixteen challenges k spread over the residues mod
  // 8. A cofactorless check would accept only those with k = 7 mod 8.
  Ed25519Signature sig = SmallOrderSignature();
  for (uint8_t i = 0; i < 16; ++i) {
    Bytes msg = {0x42, 0x13, 0x37, i};
    EXPECT_TRUE(Ed25519Verify(Order8Point(), msg, sig)) << "message " << int{i};
  }
}

TEST(Ed25519TorsionTest, NonTorsionResidualRejected) {
  // S = 1 moves the residual off the torsion subgroup ([8]B != identity).
  Ed25519Signature sig = SmallOrderSignature();
  sig[32] = 1;  // S = 1.
  Bytes msg = {0x99};
  EXPECT_FALSE(Ed25519Verify(Order8Point(), msg, sig));
}

}  // namespace
}  // namespace nt

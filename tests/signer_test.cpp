// Signer abstraction: both schemes must agree on the contract (sign/verify
// round trip, cross-key rejection, tamper rejection, deterministic keys).
#include "src/crypto/signer.h"

#include <gtest/gtest.h>

namespace nt {
namespace {

class SignerContractTest : public ::testing::TestWithParam<SignerKind> {};

TEST_P(SignerContractTest, SignVerifyRoundTrip) {
  auto signer = MakeSigner(GetParam(), DeriveSeed(1, 0));
  Bytes msg = {1, 2, 3};
  Signature sig = signer->Sign(msg);
  EXPECT_TRUE(signer->Verify(signer->public_key(), msg, sig));
}

TEST_P(SignerContractTest, CrossValidatorVerify) {
  auto alice = MakeSigner(GetParam(), DeriveSeed(1, 0));
  auto bob = MakeSigner(GetParam(), DeriveSeed(1, 1));
  Bytes msg = {42};
  Signature sig = alice->Sign(msg);
  // Bob can verify Alice's signature against Alice's key...
  EXPECT_TRUE(bob->Verify(alice->public_key(), msg, sig));
  // ...but it does not verify under Bob's key.
  EXPECT_FALSE(bob->Verify(bob->public_key(), msg, sig));
}

TEST_P(SignerContractTest, TamperRejected) {
  auto signer = MakeSigner(GetParam(), DeriveSeed(2, 7));
  Bytes msg = {5, 5, 5};
  Signature sig = signer->Sign(msg);
  Signature bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(signer->Verify(signer->public_key(), msg, bad));
  Bytes other = {5, 5, 6};
  EXPECT_FALSE(signer->Verify(signer->public_key(), other, sig));
}

TEST_P(SignerContractTest, DeterministicKeyDerivation) {
  auto a = MakeSigner(GetParam(), DeriveSeed(3, 4));
  auto b = MakeSigner(GetParam(), DeriveSeed(3, 4));
  EXPECT_EQ(a->public_key(), b->public_key());
  auto c = MakeSigner(GetParam(), DeriveSeed(3, 5));
  EXPECT_NE(a->public_key(), c->public_key());
  auto d = MakeSigner(GetParam(), DeriveSeed(4, 4));
  EXPECT_NE(a->public_key(), d->public_key());
}

TEST_P(SignerContractTest, DigestSigningOverload) {
  auto signer = MakeSigner(GetParam(), DeriveSeed(6, 0));
  Digest d = Sha256::Hash("payload");
  Signature sig = signer->Sign(d);
  EXPECT_TRUE(signer->Verify(signer->public_key(), d, sig));
  Digest other = Sha256::Hash("payload2");
  EXPECT_FALSE(signer->Verify(signer->public_key(), other, sig));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SignerContractTest,
                         ::testing::Values(SignerKind::kEd25519, SignerKind::kFast),
                         [](const ::testing::TestParamInfo<SignerKind>& param_info) {
                           return param_info.param == SignerKind::kEd25519 ? "Ed25519" : "Fast";
                         });

TEST(FastSignerTest, UnknownKeyFailsVerification) {
  auto signer = MakeSigner(SignerKind::kFast, DeriveSeed(9, 0));
  PublicKey unknown{};
  unknown[0] = 0xff;
  Bytes msg = {1};
  EXPECT_FALSE(signer->Verify(unknown, msg, signer->Sign(msg)));
}

TEST(FastSignerTest, WireSizesMatchEd25519) {
  auto fast = MakeSigner(SignerKind::kFast, DeriveSeed(1, 1));
  auto ed = MakeSigner(SignerKind::kEd25519, DeriveSeed(1, 1));
  EXPECT_EQ(fast->public_key().size(), ed->public_key().size());
  Bytes msg = {3};
  EXPECT_EQ(fast->Sign(msg).size(), ed->Sign(msg).size());
}

}  // namespace
}  // namespace nt

// Known-answer and property tests for SHA-256 / SHA-512, including the
// runtime-derived FIPS 180-4 constants (pinned by the NIST vectors) and the
// agreement of the two SHA-256 compression kernels.
#include "src/crypto/hash.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <utility>

#include "src/common/bytes.h"
#include "src/crypto/sha256_blocks.h"

namespace nt {
namespace {

TEST(Sha256Test, NistVectorEmpty) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, NistVectorAbc) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, NistVectorTwoBlocks) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  std::string msg;
  for (int i = 0; i < 300; ++i) {
    msg.push_back(static_cast<char>(i % 251));
  }
  // Split the message at every boundary; digest must not depend on chunking.
  Digest expected = Sha256::Hash(msg);
  for (size_t split = 0; split <= msg.size(); split += 17) {
    Sha256 h;
    h.Update(msg.substr(0, split));
    h.Update(msg.substr(split));
    EXPECT_EQ(h.Finalize(), expected) << "split at " << split;
  }
}

// FIPS 180-4 padding written out on its own and run through the scalar
// kernel, so it checks Finalize's block-wise padding independently of it.
Digest ReferenceSha256(const std::string& msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0);
  }
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<uint8_t>(bits >> shift));
  }
  // FIPS 180-4 §5.3.3 initial hash value.
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  sha256_blocks::CompressScalar(state, padded.data(), padded.size() / 64);
  Digest out;
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

TEST(Sha256Test, LengthBoundaryPadding) {
  // Every length through 300 bytes: one-shot and byte-by-byte streaming both
  // match the reference, across every padding position in the last block.
  for (size_t len = 0; len <= 300; ++len) {
    std::string msg;
    for (size_t i = 0; i < len; ++i) {
      msg.push_back(static_cast<char>('a' + i % 26));
    }
    const Digest expected = ReferenceSha256(msg);
    EXPECT_EQ(Sha256::Hash(msg), expected) << "len " << len;
    Sha256 h;
    for (char c : msg) {
      h.Update(std::string(1, c));
    }
    EXPECT_EQ(h.Finalize(), expected) << "len " << len;
  }
}

TEST(Sha256BlocksTest, ShaNiMatchesScalar) {
  if (!sha256_blocks::HasShaNi()) {
    GTEST_SKIP() << "CPU lacks SHA-NI; only the scalar kernel runs here";
  }
#if defined(__x86_64__) || defined(__i386__)
  std::mt19937_64 rng(20221);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t blocks = 1 + trial % 4;
    Bytes data(64 * blocks);
    for (uint8_t& b : data) {
      b = static_cast<uint8_t>(rng());
    }
    uint32_t scalar[8];
    for (uint32_t& w : scalar) {
      w = static_cast<uint32_t>(rng());
    }
    uint32_t shani[8];
    std::memcpy(shani, scalar, sizeof(scalar));
    sha256_blocks::CompressScalar(scalar, data.data(), blocks);
    sha256_blocks::CompressShaNi(shani, data.data(), blocks);
    EXPECT_EQ(0, std::memcmp(scalar, shani, sizeof(scalar)))
        << "trial " << trial << ", " << blocks << " blocks";
  }
#endif
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::Hash("abc"), Sha256::Hash("abd"));
  EXPECT_NE(Sha256::Hash("abc"), Sha256::Hash(std::string_view("abc\0", 4)));
}

TEST(Sha512Test, NistVectorEmpty) {
  auto out = Sha512::Hash(nullptr, 0);
  EXPECT_EQ(ToHex(out.data(), out.size()),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, NistVectorAbc) {
  const char* msg = "abc";
  auto out = Sha512::Hash(reinterpret_cast<const uint8_t*>(msg), 3);
  EXPECT_EQ(ToHex(out.data(), out.size()),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, NistVectorTwoBlocks) {
  const char* msg =
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  auto out = Sha512::Hash(reinterpret_cast<const uint8_t*>(msg), 112);
  EXPECT_EQ(ToHex(out.data(), out.size()),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, StreamingMatchesOneShot) {
  Bytes msg(777);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 7);
  }
  auto expected = Sha512::Hash(msg);
  Sha512 h;
  h.Update(msg.data(), 100);
  h.Update(msg.data() + 100, 28);
  h.Update(msg.data() + 128, msg.size() - 128);
  EXPECT_EQ(h.Finalize(), expected);
}

TEST(Sha512Test, LengthBoundaryPadding) {
  // 111/112 and 239/240 straddle where the length field stops fitting in the
  // last block. Prefixes of digests from an independent SHA-512.
  const std::pair<size_t, const char*> cases[] = {
      {111, "9a2a120825c2319867758ec277924f6f"}, {112, "a3722b515ef40c910f2419f6e0da8ca5"},
      {127, "1d5a8893e7b7ed83d485d26f88cfb846"}, {128, "e2e22f8422b54b06e35c3ea30a383d1d"},
      {129, "19015483ea99fa74728fd7b13adba6b7"}, {239, "805c40517b44cef414a06c632b4ee9c2"},
      {240, "3e05caa7e0fddab685e6052bd902c316"}};
  for (const auto& [len, prefix] : cases) {
    const Bytes msg(len, 'x');
    const Sha512::Output once = Sha512::Hash(msg);
    EXPECT_EQ(ToHex(once.data(), once.size()).substr(0, 32), prefix) << "len " << len;
    Sha512 h;
    for (uint8_t c : msg) {
      h.Update(&c, 1);
    }
    EXPECT_EQ(h.Finalize(), once) << "len " << len;
  }
}

TEST(DigestTest, HexHelpers) {
  Digest d = Sha256::Hash("abc");
  EXPECT_EQ(DigestHex(d).size(), 64u);
  EXPECT_EQ(DigestShort(d), DigestHex(d).substr(0, 8));
}

}  // namespace
}  // namespace nt

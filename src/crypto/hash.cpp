#include "src/crypto/hash.h"

#include <algorithm>
#include <cstring>

#include "src/crypto/sha256_blocks.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace nt {
namespace {

// ---------------------------------------------------------------------------
// Constant derivation.
//
// FIPS 180-4 defines the SHA-2 constants as the first 64 bits of the
// fractional parts of the cube roots of the first 80 primes (round constants)
// and of the square roots of the first 16 primes (initial hash values).
// We compute floor(frac(root(p)) * 2^64) exactly: binary-search the 64
// fractional bits of the root, comparing candidate^k against p << (64*k)
// using multi-word integer arithmetic.
// ---------------------------------------------------------------------------

// 320-bit accumulator as 5 little-endian 64-bit words.
struct U320 {
  uint64_t w[5] = {0, 0, 0, 0, 0};

  // Three-way compare.
  int Compare(const U320& other) const {
    for (int i = 4; i >= 0; --i) {
      if (w[i] != other.w[i]) {
        return w[i] < other.w[i] ? -1 : 1;
      }
    }
    return 0;
  }
};

U320 AddShift64(const U320& a, const U320& b_shifted_by_64) {
  // Adds b << 64 to a.
  U320 out;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 5; ++i) {
    unsigned __int128 sum = carry + a.w[i];
    if (i >= 1) {
      sum += b_shifted_by_64.w[i - 1];
    }
    out.w[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  return out;
}

// candidate is < 2^69 (integer part up to 8 for cube roots of primes < 512,
// plus 64 fractional bits). Returns candidate^2 as U320.
U320 Square(uint64_t lo, uint64_t hi) {
  // (hi*2^64 + lo)^2 = lo^2 + 2*hi*lo*2^64 + hi^2*2^128
  U320 out;
  unsigned __int128 lo2 = static_cast<unsigned __int128>(lo) * lo;
  unsigned __int128 cross2 = (static_cast<unsigned __int128>(hi) * lo) << 1;  // hi < 2^6.
  unsigned __int128 hi2 = static_cast<unsigned __int128>(hi) * hi;

  unsigned __int128 acc = static_cast<uint64_t>(lo2);
  out.w[0] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<uint64_t>(lo2 >> 64) + static_cast<uint64_t>(cross2);
  out.w[1] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<uint64_t>(cross2 >> 64) + static_cast<uint64_t>(hi2);
  out.w[2] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<uint64_t>(hi2 >> 64);
  out.w[3] = static_cast<uint64_t>(acc);
  return out;
}

// candidate^3 for candidate = hi:lo (< 2^69).
U320 Cube(uint64_t lo, uint64_t hi) {
  U320 sq = Square(lo, hi);
  // sq fits in ~138 bits -> words 0..2. Multiply by candidate.
  // sq * lo:
  U320 out;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 5; ++i) {
    unsigned __int128 prod = carry + static_cast<unsigned __int128>(sq.w[i]) * lo;
    out.w[i] = static_cast<uint64_t>(prod);
    carry = prod >> 64;
  }
  // + (sq * hi) << 64:
  U320 sq_hi;
  carry = 0;
  for (int i = 0; i < 5; ++i) {
    unsigned __int128 prod = carry + static_cast<unsigned __int128>(sq.w[i]) * hi;
    sq_hi.w[i] = static_cast<uint64_t>(prod);
    carry = prod >> 64;
  }
  return AddShift64(out, sq_hi);
}

// Exact floor(frac(p^(1/k)) * 2^64) for k in {2, 3}.
uint64_t FracRootBits(uint32_t p, int k) {
  // Integer part of the root.
  uint64_t int_part = 0;
  while ((k == 2 ? (int_part + 1) * (int_part + 1) : (int_part + 1) * (int_part + 1) * (int_part + 1)) <=
         p) {
    ++int_part;
  }
  // Target: candidate^k <= p << (64*k) for candidate = (int_part << 64) | frac.
  U320 target;
  target.w[k] = p;  // p << (64*k)

  uint64_t frac = 0;
  for (int bit = 63; bit >= 0; --bit) {
    uint64_t trial = frac | (1ull << bit);
    U320 val = (k == 2) ? Square(trial, int_part) : Cube(trial, int_part);
    if (val.Compare(target) <= 0) {
      frac = trial;
    }
  }
  return frac;
}

constexpr uint32_t kPrimes[80] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
    313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409};

struct ShaConstants {
  uint32_t k256[64];
  uint32_t h256[8];
  uint64_t k512[80];
  uint64_t h512[8];

  ShaConstants() {
    for (int i = 0; i < 80; ++i) {
      k512[i] = FracRootBits(kPrimes[i], 3);
      if (i < 64) {
        k256[i] = static_cast<uint32_t>(k512[i] >> 32);
      }
    }
    for (int i = 0; i < 8; ++i) {
      uint64_t s = FracRootBits(kPrimes[i], 2);
      h256[i] = static_cast<uint32_t>(s >> 32);
      // SHA-512 initial values are the 64-bit fractional parts of the square
      // roots of the first 8 primes.
      h512[i] = s;
    }
  }
};

const ShaConstants& Constants() {
  static const ShaConstants c;
  return c;
}

inline uint32_t Rotr32(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline uint64_t Rotr64(uint64_t x, int n) { return (x >> n) | (x << (64 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline void StoreBe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (56 - 8 * i));
  }
}

constexpr char kHexDigitsLower[] = "0123456789abcdef";

}  // namespace

std::string DigestHex(const Digest& d) { return ToHex(d.data(), d.size()); }

std::string DigestShort(const Digest& d) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(kHexDigitsLower[d[i] >> 4]);
    out.push_back(kHexDigitsLower[d[i] & 0x0f]);
  }
  return out;
}

// ----------------------------------------------------------------- SHA-256

namespace sha256_blocks {

void CompressScalar(uint32_t state[8], const uint8_t* data, size_t blocks) {
  const uint32_t* k = Constants().k256;
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBe32(data + 4 * i);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + k[i] + w[i];
      uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

// The SHA-NI kernel keeps the state as two vectors, ABEF and CDGH (the
// register layout _mm_sha256rnds2_epu32 wants), and the message schedule as a
// ring of four vectors of four words each. Only this function is compiled for
// the SHA extensions; the rest of the build stays baseline.
__attribute__((target("sha,sse4.1,ssse3")))
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks) {
  const uint32_t* k = Constants().k256;
  // Byte order within each 32-bit word: big-endian message words.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // m[i & 3] holds words 4i..4i+3 when group i runs. Group i then finishes
    // the words of group i+1 (msg2) and starts those of group i+3 (msg1) in
    // the slot group i-1 no longer needs.
    __m128i m[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        m[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), bswap);
      }
      // Four rounds: two per sha256rnds2, which takes its words from the low half.
      const __m128i wk =
          _mm_add_epi32(m[i & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(k + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
      if (i >= 3 && i <= 14) {
        const __m128i carry = _mm_alignr_epi8(m[i & 3], m[(i - 1) & 3], 4);
        m[(i + 1) & 3] = _mm_sha256msg2_epu32(_mm_add_epi32(m[(i + 1) & 3], carry), m[i & 3]);
      }
      if (i >= 1 && i <= 12) {
        m[(i - 1) & 3] = _mm_sha256msg1_epu32(m[(i - 1) & 3], m[i & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool HasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  const bool shuffles = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return shuffles && (ebx & bit_SHA) != 0;
}

#else

bool HasShaNi() { return false; }

#endif

}  // namespace sha256_blocks

namespace {

// The kernel every Sha256 uses, chosen on first use.
void Compress(uint32_t state[8], const uint8_t* data, size_t blocks) {
#if defined(__x86_64__) || defined(__i386__)
  static const auto kernel =
      sha256_blocks::HasShaNi() ? sha256_blocks::CompressShaNi : sha256_blocks::CompressScalar;
  kernel(state, data, blocks);
#else
  sha256_blocks::CompressScalar(state, data, blocks);
#endif
}

}  // namespace

Sha256::Sha256() {
  const ShaConstants& c = Constants();
  for (int i = 0; i < 8; ++i) {
    state_[i] = c.h256[i];
  }
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;  // `data` may be null; memcpy must not see it.
  }
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < 64) {
      return;
    }
    Compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const size_t blocks = len / 64;
  if (blocks > 0) {
    Compress(state_.data(), data, blocks);
    data += 64 * blocks;
    len -= 64 * blocks;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::Finalize() {
  // 0x80, zeros to byte 56 of the last block, then the 64-bit bit length.
  // The length needs a second block when fewer than 9 bytes are left.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    Compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  StoreBe64(buffer_.data() + 56, total_len_ * 8);
  Compress(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    StoreBe32(out.data() + 4 * i, state_[i]);
  }
  return out;
}

Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

// ----------------------------------------------------------------- SHA-512

Sha512::Sha512() {
  const ShaConstants& c = Constants();
  for (int i = 0; i < 8; ++i) {
    state_[i] = c.h512[i];
  }
}

void Sha512::ProcessBlock(const uint8_t* block) {
  const ShaConstants& c = Constants();
  uint64_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = LoadBe64(block + 8 * i);
  }
  for (int i = 16; i < 80; ++i) {
    uint64_t s0 = Rotr64(w[i - 15], 1) ^ Rotr64(w[i - 15], 8) ^ (w[i - 15] >> 7);
    uint64_t s1 = Rotr64(w[i - 2], 19) ^ Rotr64(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint64_t a = state_[0], b = state_[1], cc = state_[2], d = state_[3];
  uint64_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 80; ++i) {
    uint64_t s1 = Rotr64(e, 14) ^ Rotr64(e, 18) ^ Rotr64(e, 41);
    uint64_t ch = (e & f) ^ (~e & g);
    uint64_t t1 = h + s1 + ch + c.k512[i] + w[i];
    uint64_t s0 = Rotr64(a, 28) ^ Rotr64(a, 34) ^ Rotr64(a, 39);
    uint64_t maj = (a & b) ^ (a & cc) ^ (b & cc);
    uint64_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = cc;
    cc = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += cc;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha512::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    if (buffer_len_ == 0 && len >= 128) {
      ProcessBlock(data);
      data += 128;
      len -= 128;
      continue;
    }
    size_t take = std::min(len, 128 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == 128) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
}

Sha512::Output Sha512::Finalize() {
  // 0x80, zeros to byte 112 of the last block, then the 128-bit bit length
  // (high 64 bits zero for all inputs we hash). The length needs a second
  // block when fewer than 17 bytes are left.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 112) {
    std::memset(buffer_.data() + buffer_len_, 0, 128 - buffer_len_);
    ProcessBlock(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 120 - buffer_len_);
  StoreBe64(buffer_.data() + 120, total_len_ * 8);
  ProcessBlock(buffer_.data());
  buffer_len_ = 0;

  Output out;
  for (int i = 0; i < 8; ++i) {
    StoreBe64(out.data() + 8 * i, state_[i]);
  }
  return out;
}

Sha512::Output Sha512::Hash(const uint8_t* data, size_t len) {
  Sha512 h;
  h.Update(data, len);
  return h.Finalize();
}

}  // namespace nt

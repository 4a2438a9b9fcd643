#include "crypto/sha1.hpp"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BTPUB_SHA1_SHANI 1
#endif

namespace btpub {
namespace {

using State = std::array<std::uint32_t, 5>;

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

// The four 20-round phases: round function and constant.
struct Choose {
  static constexpr std::uint32_t k = 0x5A827999u;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) noexcept {
    return d ^ (b & (c ^ d));
  }
};
template <std::uint32_t K>
struct Parity {
  static constexpr std::uint32_t k = K;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) noexcept {
    return b ^ c ^ d;
  }
};
struct Majority {
  static constexpr std::uint32_t k = 0x8F1BBCDCu;
  static std::uint32_t f(std::uint32_t b, std::uint32_t c, std::uint32_t d) noexcept {
    return (b & c) | (d & (b | c));
  }
};
using Parity1 = Parity<0x6ED9EBA1u>;
using Parity2 = Parity<0xCA62C1D6u>;

// Message word i from the rolling 16-word schedule: words 0-15 are the
// block itself, and each later word overwrites the slot of word i - 16.
template <int i>
std::uint32_t schedule(std::uint32_t* w) noexcept {
  if constexpr (i >= 16) {
    w[i & 15] = rotl32(w[(i - 3) & 15] ^ w[(i - 8) & 15] ^ w[(i - 14) & 15] ^
                           w[i & 15],
                       1);
  }
  return w[i & 15];
}

// Five rounds from round i. Each round adds into e and rotates b; instead of
// shifting a..e down, the next round renames them, and after five rounds
// every variable is back in its own role.
template <class F>
void step(std::uint32_t a, std::uint32_t& b, std::uint32_t c, std::uint32_t d,
          std::uint32_t& e, std::uint32_t w) noexcept {
  e += rotl32(a, 5) + F::f(b, c, d) + F::k + w;
  b = rotl32(b, 30);
}

template <class F, int i>
void five_rounds(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                 std::uint32_t& d, std::uint32_t& e, std::uint32_t* w) noexcept {
  step<F>(a, b, c, d, e, schedule<i>(w));
  step<F>(e, a, b, c, d, schedule<i + 1>(w));
  step<F>(d, e, a, b, c, schedule<i + 2>(w));
  step<F>(c, d, e, a, b, schedule<i + 3>(w));
  step<F>(b, c, d, e, a, schedule<i + 4>(w));
}

#ifdef BTPUB_SHA1_SHANI
// The SHA extensions run four rounds per sha1rnds4 on ABCD packed into one
// register (A in the top lane) and E riding in the top lane of the message
// operand. Message groups W0..W19 (four words each) rotate through
// msg0..msg3: group g+4 is sha1msg2(sha1msg1(W_g, W_g+1) ^ W_g+2, W_g+3),
// built one piece per step as groups g+1, g+2 and g+3 are consumed.
// Per-function target: the rest of the program keeps the baseline ISA, and
// this runs only after sha1_shani_kernel() has checked the CPU.
__attribute__((target("sha,sse4.1"))) inline __m128i load_words(
    const std::uint8_t* p) noexcept {
  // Byte-reverses the 16 bytes: big-endian words, word 0 in the top lane.
  const __m128i reverse =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                          reverse);
}

__attribute__((target("sha,sse4.1"))) void compress_shani(
    State& state, const std::uint8_t* blocks, std::size_t n) noexcept {
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; n > 0; --n, blocks += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i e1;
    // Rounds 0-3.
    __m128i msg0 = load_words(blocks + 0);
    e0 = _mm_add_epi32(e0, msg0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    // Rounds 4-7.
    __m128i msg1 = load_words(blocks + 16);
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    // Rounds 8-11.
    __m128i msg2 = load_words(blocks + 32);
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 12-15.
    __m128i msg3 = load_words(blocks + 48);
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 16-19.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 20-23.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 24-27.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 28-31.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 32-35.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 36-39.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 40-43.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 44-47.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 48-51.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 52-55.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 56-59.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 60-63.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 64-67.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 68-71.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 72-75.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    // Rounds 76-79.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    // Feed-forward: E's rotate-and-add is one more sha1nexte.
    e0 = _mm_sha1nexte_epu32(e0, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}
#endif

void compress(State& state, const std::uint8_t* blocks, std::size_t n) noexcept {
  detail::sha1_kernel()(state, blocks, n);
}

int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Sha1Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Sha1Digest Sha1Digest::from_hex(std::string_view hex) {
  Sha1Digest d;
  if (hex.size() != 40) return d;
  for (std::size_t i = 0; i < 20; ++i) {
    const int hi = hex_value(hex[2 * i]);
    const int lo = hex_value(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return Sha1Digest{};
    d.bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return d;
}

Sha1::Sha1() noexcept {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t need = 64 - buffered_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ < 64) return;
    compress(h_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Every whole block goes to the kernel in one call, so the state stays in
  // registers across a long message.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(h_, data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha1::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha1Digest Sha1::finish() noexcept {
  // The buffered tail, 0x80, zeros up to 56 mod 64 and the 64-bit big-endian
  // bit length: one final block, or two when the tail leaves no room for
  // the length.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t tail_len = buffered_ < 56 ? 64 : 128;
  const std::uint64_t bit_length = total_bytes_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  compress(h_, tail, tail_len / 64);
  buffered_ = 0;

  Sha1Digest d;
  for (int i = 0; i < 5; ++i) {
    d.bytes[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return d;
}

Sha1Digest Sha1::hash(std::string_view data) noexcept {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

Sha1Digest Sha1::hash(std::span<const std::uint8_t> data) noexcept {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

namespace detail {

void sha1_compress_portable(State& state, const std::uint8_t* blocks,
                            std::size_t n) noexcept {
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];
  for (; n > 0; --n, blocks += 64) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    const std::uint32_t a0 = a, b0 = b, c0 = c, d0 = d, e0 = e;
    five_rounds<Choose, 0>(a, b, c, d, e, w);
    five_rounds<Choose, 5>(a, b, c, d, e, w);
    five_rounds<Choose, 10>(a, b, c, d, e, w);
    five_rounds<Choose, 15>(a, b, c, d, e, w);
    five_rounds<Parity1, 20>(a, b, c, d, e, w);
    five_rounds<Parity1, 25>(a, b, c, d, e, w);
    five_rounds<Parity1, 30>(a, b, c, d, e, w);
    five_rounds<Parity1, 35>(a, b, c, d, e, w);
    five_rounds<Majority, 40>(a, b, c, d, e, w);
    five_rounds<Majority, 45>(a, b, c, d, e, w);
    five_rounds<Majority, 50>(a, b, c, d, e, w);
    five_rounds<Majority, 55>(a, b, c, d, e, w);
    five_rounds<Parity2, 60>(a, b, c, d, e, w);
    five_rounds<Parity2, 65>(a, b, c, d, e, w);
    five_rounds<Parity2, 70>(a, b, c, d, e, w);
    five_rounds<Parity2, 75>(a, b, c, d, e, w);
    a += a0;
    b += b0;
    c += c0;
    d += d0;
    e += e0;
  }
  state = {a, b, c, d, e};
}

Sha1Kernel sha1_shani_kernel() noexcept {
#ifdef BTPUB_SHA1_SHANI
  // Static initialisers in other translation units hash before libgcc's
  // own constructor may have filled in the CPU model; init is idempotent.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return &compress_shani;
  }
#endif
  return nullptr;
}

Sha1Kernel sha1_kernel() noexcept {
  // A function-local static, not a namespace-scope one: Sha1 runs during
  // other translation units' static initialisation, before this file's.
  static const Sha1Kernel kernel = [] {
    const Sha1Kernel shani = sha1_shani_kernel();
    return shani != nullptr ? shani : &sha1_compress_portable;
  }();
  return kernel;
}

}  // namespace detail
}  // namespace btpub

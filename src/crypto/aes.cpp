#include "crypto/aes.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/error.h"

namespace sinclave::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16,
};

constexpr std::uint8_t kRcon[15] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36,
                                    0x6c, 0xd8, 0xab, 0x4d, 0x9a};

inline std::uint32_t sub_word(std::uint32_t w) {
  return (std::uint32_t{kSbox[(w >> 24) & 0xff]} << 24) |
         (std::uint32_t{kSbox[(w >> 16) & 0xff]} << 16) |
         (std::uint32_t{kSbox[(w >> 8) & 0xff]} << 8) |
         std::uint32_t{kSbox[w & 0xff]};
}

inline std::uint32_t rot_word(std::uint32_t w) {
  return (w << 8) | (w >> 24);
}

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

#if defined(__x86_64__)

bool cpu_has_aes_ni() {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    return (c & (1u << 25)) != 0;  // ECX bit 25: AES-NI
  }();
  return has;
}

// AES-NI counter mode over `blocks` whole 16-byte blocks. The round keys
// come from Aes's own schedule: each big-endian word is byte-swapped into
// the byte order AESENC expects, and the copy is wiped on return. Eight
// counter blocks stay in flight so the AESENC latency overlaps.
__attribute__((target("aes,sse4.1")))
void ctr_xor_aesni(const std::uint32_t* round_keys, int rounds,
                   const std::uint8_t* nonce, std::uint32_t counter,
                   const std::uint8_t* in, std::uint8_t* out,
                   std::size_t blocks) {
  const __m128i kWordBswap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  __m128i rk[15];
  for (int r = 0; r <= rounds; ++r) {
    rk[r] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys + 4 * r)),
        kWordBswap);
  }
  std::uint8_t nonce_block[16] = {};
  std::memcpy(nonce_block, nonce, 12);
  const __m128i base =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nonce_block));

  // Bytes 12..15 carry the counter big-endian; uint32_t arithmetic wraps
  // at 2^32 exactly as the portable loop does. Lambdas do not inherit the
  // target attribute, so the helpers are macros.
#define AESNI_COUNTER_BLOCK(ctr) \
  _mm_insert_epi32(base, static_cast<int>(__builtin_bswap32(ctr)), 3)
#define AESNI_XOR_BLOCK(i, ks)                                             \
  _mm_storeu_si128(                                                        \
      reinterpret_cast<__m128i*>(out + 16 * (i)),                          \
      _mm_xor_si128(_mm_loadu_si128(                                       \
                        reinterpret_cast<const __m128i*>(in + 16 * (i))), \
                    (ks)))

  constexpr std::size_t kLanes = 8;
  std::size_t done = 0;
  for (; done + kLanes <= blocks; done += kLanes, counter += kLanes) {
    __m128i b[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) {
      b[i] = _mm_xor_si128(
          AESNI_COUNTER_BLOCK(counter + static_cast<std::uint32_t>(i)),
          rk[0]);
    }
    for (int r = 1; r < rounds; ++r) {
      for (std::size_t i = 0; i < kLanes; ++i)
        b[i] = _mm_aesenc_si128(b[i], rk[r]);
    }
    for (std::size_t i = 0; i < kLanes; ++i)
      AESNI_XOR_BLOCK(done + i, _mm_aesenclast_si128(b[i], rk[rounds]));
  }
  for (; done < blocks; ++done, ++counter) {
    __m128i b = _mm_xor_si128(AESNI_COUNTER_BLOCK(counter), rk[0]);
    for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, rk[r]);
    AESNI_XOR_BLOCK(done, _mm_aesenclast_si128(b, rk[rounds]));
  }
#undef AESNI_COUNTER_BLOCK
#undef AESNI_XOR_BLOCK

  secure_zero(reinterpret_cast<std::uint8_t*>(rk), sizeof(rk));
}

#endif  // __x86_64__

}  // namespace

Aes::Aes(ByteView key) {
  int nk;
  if (key.size() == 16) {
    nk = 4;
    rounds_ = 10;
  } else if (key.size() == 32) {
    nk = 8;
    rounds_ = 14;
  } else {
    throw Error("aes: key must be 16 or 32 bytes");
  }

  const int total = 4 * (rounds_ + 1);
  for (int i = 0; i < nk; ++i) {
    round_keys_[i] = (std::uint32_t{key[static_cast<std::size_t>(4 * i)]} << 24) |
                     (std::uint32_t{key[static_cast<std::size_t>(4 * i + 1)]} << 16) |
                     (std::uint32_t{key[static_cast<std::size_t>(4 * i + 2)]} << 8) |
                     std::uint32_t{key[static_cast<std::size_t>(4 * i + 3)]};
  }
  for (int i = nk; i < total; ++i) {
    std::uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^
             (std::uint32_t{kRcon[i / nk - 1]} << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
}

Aes::~Aes() {
  secure_zero(reinterpret_cast<std::uint8_t*>(round_keys_), sizeof(round_keys_));
}

void Aes::encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const std::uint32_t k = round_keys_[4 * round + c];
      s[4 * c + 0] ^= static_cast<std::uint8_t>(k >> 24);
      s[4 * c + 1] ^= static_cast<std::uint8_t>(k >> 16);
      s[4 * c + 2] ^= static_cast<std::uint8_t>(k >> 8);
      s[4 * c + 3] ^= static_cast<std::uint8_t>(k);
    }
  };

  auto sub_bytes = [&] {
    for (auto& b : s) b = kSbox[b];
  };

  auto shift_rows = [&] {
    std::uint8_t t[16];
    // Row r of the state is bytes s[r], s[r+4], s[r+8], s[r+12].
    for (int c = 0; c < 4; ++c)
      for (int r = 0; r < 4; ++r) t[4 * c + r] = s[4 * ((c + r) % 4) + r];
    std::memcpy(s, t, 16);
  };

  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = s + 4 * c;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(a0 ^ a1));
      col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(a1 ^ a2));
      col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(a2 ^ a3));
      col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(a3 ^ a0));
    }
  };

  add_round_key(0);
  for (int round = 1; round < rounds_; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(rounds_);

  std::memcpy(out, s, 16);
}

void aes_ctr_xor(const Aes& cipher, ByteView nonce, std::uint32_t counter0,
                 ByteView in, std::uint8_t* out) {
  if (nonce.size() != 12) throw Error("aes-ctr: nonce must be 12 bytes");

  std::uint32_t counter = counter0;
  std::size_t pos = 0;
#if defined(__x86_64__)
  const std::size_t whole_blocks = in.size() / 16;
  if (whole_blocks > 0 && cpu_has_aes_ni()) {
    ctr_xor_aesni(cipher.round_keys_, cipher.rounds_, nonce.data(), counter,
                  in.data(), out, whole_blocks);
    pos = 16 * whole_blocks;
    counter += static_cast<std::uint32_t>(whole_blocks);
  }
#endif

  // Portable S-box path: every block on hosts without AES-NI, and the
  // final partial block everywhere.
  std::uint8_t counter_block[16];
  std::memcpy(counter_block, nonce.data(), 12);
  std::uint8_t keystream[16];
  while (pos < in.size()) {
    counter_block[12] = static_cast<std::uint8_t>(counter >> 24);
    counter_block[13] = static_cast<std::uint8_t>(counter >> 16);
    counter_block[14] = static_cast<std::uint8_t>(counter >> 8);
    counter_block[15] = static_cast<std::uint8_t>(counter);
    cipher.encrypt_block(counter_block, keystream);
    const std::size_t take = std::min<std::size_t>(16, in.size() - pos);
    for (std::size_t i = 0; i < take; ++i)
      out[pos + i] = in[pos + i] ^ keystream[i];
    pos += take;
    ++counter;
  }
}

}  // namespace sinclave::crypto

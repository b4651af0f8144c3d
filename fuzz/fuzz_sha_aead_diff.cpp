// Differential oracle for the hash and AEAD layers.
//
// sha256 (the interruptible SinClave variant) and sha256_fast (the
// optimized baseline of the Fig. 6 comparison) are independent
// implementations of the same function — any divergence is a bug in one
// of them. On top of that: streaming must equal one-shot regardless of
// update boundaries, export/resume at a block boundary must be lossless,
// and the AEAD must round-trip honest records while rejecting every
// tampered byte and swapped associated-data string. aes_ctr_xor (AES-NI
// where the CPU has it) is checked against counter mode spelled out over
// the portable encrypt_block, and hmac_sha256 (which shares sha256_fast's
// SHA-NI kernel) against an HMAC composed here from the interruptible
// Sha256. Streaming SHA-512 (Ed25519's hash) fed in fuzz-chosen pieces
// must equal the one-shot digest.
#include "harnesses.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/error.h"
#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_fast.h"
#include "crypto/sha512.h"
#include "fuzz_util.h"

namespace sinclave::fuzz {

int run_sha_aead_diff(const std::uint8_t* data, std::size_t size) {
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();

  switch (mode % 7) {
    case 0: {
      const Bytes msg = in.rest();
      require(crypto::sha256(msg) == crypto::sha256_fast(msg),
              "sha256 and sha256_fast disagree");
      break;
    }
    case 1: {
      // Streaming with fuzz-chosen split points == one-shot.
      const std::size_t cut1 = in.below(4096);
      const std::size_t cut2 = in.below(4096);
      const Bytes msg = in.rest();
      const std::size_t a = cut1 < msg.size() ? cut1 : msg.size();
      const std::size_t b =
          a + (cut2 < msg.size() - a ? cut2 : msg.size() - a);
      crypto::Sha256 h;
      h.update(ByteView(msg).subspan(0, a));
      h.update(ByteView(msg).subspan(a, b - a));
      h.update(ByteView(msg).subspan(b));
      require(h.finalize() == crypto::sha256(msg),
              "streaming sha256 diverges from one-shot");
      break;
    }
    case 2: {
      // Export at a 64-byte boundary, resume, finish: must equal the
      // uninterrupted hash — this IS the base-hash mechanism the paper
      // builds on, so the property is load-bearing.
      const std::size_t blocks = in.below(8);
      const Bytes msg = in.rest();
      const std::size_t head =
          64 * blocks <= msg.size() ? 64 * blocks : (msg.size() / 64) * 64;
      crypto::Sha256 h;
      h.update(ByteView(msg).subspan(0, head));
      require(h.exportable(), "block-aligned hasher not exportable");
      const crypto::Sha256State state = h.export_state();
      crypto::Sha256 resumed = crypto::Sha256::resume(
          crypto::Sha256State::decode(state.encode()));
      resumed.update(ByteView(msg).subspan(head));
      require(resumed.finalize() == crypto::sha256(msg),
              "export/resume changed the digest");
      break;
    }
    case 3: {
      const Bytes key = crypto::hkdf(Bytes{}, in.take(16), Bytes{}, 32);
      Bytes nonce = in.take(crypto::kAeadNonceSize);
      nonce.resize(crypto::kAeadNonceSize, 0);
      const std::size_t flip = in.u16();
      const Bytes ad = in.chunk();
      const Bytes pt = in.rest();
      const crypto::Aead aead(key);
      const Bytes sealed = aead.seal(nonce, pt, ad);
      const auto opened = aead.open(nonce, sealed, ad);
      require(opened.has_value() && *opened == pt,
              "AEAD cannot open its own record");
      if (!sealed.empty()) {
        Bytes tampered = sealed;
        tampered[flip % sealed.size()] ^= 0x01;
        require(!aead.open(nonce, tampered, ad).has_value(),
                "AEAD accepted a tampered record");
      }
      Bytes other_ad = ad;
      other_ad.push_back(0);
      require(!aead.open(nonce, sealed, other_ad).has_value(),
              "AEAD accepted swapped associated data");
      require(!aead.open(nonce, ByteView(sealed).subspan(0, sealed.size() / 2),
                         ad)
                   .has_value(),
              "AEAD accepted a truncated record");
      // hmac/hkdf determinism (the AEAD's subkey schedule rests on it).
      require(crypto::hmac_sha256(key, pt) == crypto::hmac_sha256(key, pt),
              "hmac_sha256 is not deterministic");
      break;
    }
    case 4: {
      // Key size, counter (the 32-bit wrap included), length and buffer
      // misalignment all fuzz-chosen.
      const std::size_t key_size = in.boolean() ? 32 : 16;
      Bytes key = in.take(key_size);
      key.resize(key_size, 0);
      Bytes nonce = in.take(12);
      nonce.resize(12, 0);
      const std::uint32_t counter0 = in.u32();
      const std::size_t offset = in.below(16);
      const Bytes msg = in.rest();
      const crypto::Aes aes(key);

      Bytes src(offset + msg.size());
      std::copy(msg.begin(), msg.end(), src.begin() + offset);
      Bytes dst(src.size());
      crypto::aes_ctr_xor(aes, nonce, counter0, ByteView(src).subspan(offset),
                          dst.data() + offset);

      std::uint8_t block[16];
      std::uint8_t keystream[16];
      std::memcpy(block, nonce.data(), 12);
      std::uint32_t counter = counter0;
      for (std::size_t pos = 0; pos < msg.size(); pos += 16, ++counter) {
        for (int i = 0; i < 4; ++i)
          block[12 + i] = static_cast<std::uint8_t>(counter >> (24 - 8 * i));
        aes.encrypt_block(block, keystream);
        for (std::size_t i = 0; i < 16 && pos + i < msg.size(); ++i) {
          require(dst[offset + pos + i] == (msg[pos + i] ^ keystream[i]),
                  "aes_ctr_xor diverges from the encrypt_block reference");
        }
      }
      break;
    }
    case 5: {
      // RFC 2104 over the interruptible Sha256: an oracle that shares no
      // code with sha256_fast.
      const Bytes key = in.chunk();
      const std::size_t cut = in.below(4096);
      const Bytes msg = in.rest();
      std::uint8_t key_block[64] = {};
      if (key.size() > 64) {
        const Hash256 kh = crypto::sha256(key);
        std::memcpy(key_block, kh.data.data(), 32);
      } else if (!key.empty()) {
        std::memcpy(key_block, key.data(), key.size());
      }
      std::uint8_t ipad[64];
      std::uint8_t opad[64];
      for (int i = 0; i < 64; ++i) {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
      }
      crypto::Sha256 inner;
      inner.update(ByteView{ipad, 64});
      inner.update(msg);
      crypto::Sha256 outer;
      outer.update(ByteView{opad, 64});
      outer.update(inner.finalize().view());
      const Hash256 expect = outer.finalize();
      require(crypto::hmac_sha256(key, msg) == expect,
              "hmac_sha256 diverges from the Sha256-composed HMAC");

      const std::size_t a = cut < msg.size() ? cut : msg.size();
      crypto::HmacSha256 streamed(key);
      streamed.update(ByteView(msg).subspan(0, a));
      streamed.update(ByteView(msg).subspan(a));
      require(streamed.finalize() == expect,
              "streaming HmacSha256 diverges from one-shot");
      break;
    }
    case 6: {
      // SHA-512 fed in nine pieces, eight of fuzz-chosen length (empty
      // ones included) and the rest, against one call; pieces straddle
      // the 128-byte block.
      std::size_t cuts[8];
      for (std::size_t& cut : cuts) cut = in.below(300);
      const Bytes msg = in.rest();
      crypto::Sha512 h;
      std::size_t pos = 0;
      for (const std::size_t cut : cuts) {
        const std::size_t n = std::min(cut, msg.size() - pos);
        h.update(ByteView(msg).subspan(pos, n));
        pos += n;
      }
      h.update(ByteView(msg).subspan(pos));
      require(h.finalize() == crypto::sha512(msg),
              "streaming sha512 diverges from one-shot");
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz

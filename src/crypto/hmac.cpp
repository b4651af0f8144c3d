#include "crypto/hmac.h"

#include <cstring>

namespace sinclave::crypto {

HmacSha256::HmacSha256(ByteView key) {
  std::uint8_t key_block[64] = {};
  if (key.size() > 64) {
    const Hash256 kh = sha256_fast(key);
    std::memcpy(key_block, kh.data.data(), 32);
  } else if (!key.empty()) {  // empty views may carry a null data()
    std::memcpy(key_block, key.data(), key.size());
  }

  std::uint8_t ipad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad_key_[i] = key_block[i] ^ 0x5c;
  }
  inner_.update(ByteView{ipad, 64});
  secure_zero(key_block, sizeof(key_block));
  secure_zero(ipad, sizeof(ipad));
}

void HmacSha256::update(ByteView data) {
  inner_.update(data);
}

Hash256 HmacSha256::finalize() {
  const Hash256 inner_digest = inner_.finalize();
  Sha256Fast outer;
  outer.update(ByteView{opad_key_, 64});
  outer.update(inner_digest.view());
  secure_zero(opad_key_, sizeof(opad_key_));
  return outer.finalize();
}

Hash256 hmac_sha256(ByteView key, ByteView data) {
  HmacSha256 h(key);
  h.update(data);
  return h.finalize();
}

Mac128 hmac_sha256_128(ByteView key, ByteView data) {
  const Hash256 full = hmac_sha256(key, data);
  return Mac128::from_view(full.view());
}

}  // namespace sinclave::crypto

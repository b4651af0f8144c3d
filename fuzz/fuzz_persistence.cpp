// Sealed-state persistence and CasService state import.
//
// The singleton guarantee is only as strong as the token database's
// durability, so this harness attacks the restore path:
//  * unseal_state must map ANY blob to a typed UnsealStatus — no throw,
//    no UB — and every single-byte corruption or truncation of a genuine
//    sealed blob must be refused;
//  * a rolled-back (stale-counter) blob must be refused as kRolledBack;
//  * CasService::import_state must reject corrupt state with a typed
//    Error and WITHOUT partially-applied effects: after a failed import
//    the service has no imported policy and no imported token (a half-
//    imported token database would reopen the token-reuse attack);
//  * import(export()) must be lossless: re-exporting yields the same
//    bytes.
#include "harnesses.h"

#include <memory>

#include "cas/persistence.h"
#include "cas/service.h"
#include "common/error.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "fuzz_util.h"
#include "quote/attestation_service.h"

namespace sinclave::fuzz {
namespace {

/// Immutable cross-iteration fixture, built once; each iteration copies
/// the identity into a fresh CasService so no state leaks between inputs.
struct Golden {
  crypto::Ed25519KeyPair identity;
  Bytes seal_key;
  Bytes exported;  // state of a service with two policies + two tokens
  Bytes sealed;    // `exported` sealed at counter value 1

  static crypto::Ed25519KeyPair make_identity() {
    crypto::Drbg rng = crypto::Drbg::from_seed(11, "fuzz-persist");
    return crypto::Ed25519KeyPair::generate(rng);
  }

  Golden() : identity(make_identity()) {
    crypto::Drbg rng = crypto::Drbg::from_seed(12, "fuzz-persist-misc");
    seal_key = rng.generate(32);
    quote::AttestationService attestation;
    cas::CasService cas(&attestation, identity,
                        crypto::Drbg::from_seed(12, "fuzz-persist-cas"));
    for (const char* name : {"p0", "p1"}) {
      cas::Policy p;
      p.session_name = name;
      p.expected_signer = crypto::sha256(identity.public_key().view());
      p.require_singleton = true;
      p.config.program = "prog";
      p.config.env.emplace("K", "V");
      cas.install_policy(p);
    }
    for (std::uint8_t fill : {std::uint8_t{0xAA}, std::uint8_t{0xBB}}) {
      core::AttestationToken token;
      token.data.fill(fill);
      sgx::Measurement mr;
      mr.data.fill(static_cast<std::uint8_t>(fill ^ 0xFF));
      cas.register_token(token, "p0", mr);
    }
    exported = cas.export_state();
    cas::MonotonicCounter counter;
    sealed = cas::seal_state(seal_key, counter, exported, rng);
  }

  /// CasService is pinned in place (mutex stripes), so fresh instances
  /// come on the heap.
  std::unique_ptr<cas::CasService> fresh_service() const {
    return std::make_unique<cas::CasService>(
        &attestation_, identity,
        crypto::Drbg::from_seed(13, "fuzz-persist-new"));
  }

  mutable quote::AttestationService attestation_;
};

const Golden& golden() {
  static const Golden g;
  return g;
}

/// A service that refused an import must look untouched.
void require_no_partial_state(const cas::CasService& cas) {
  require(!cas.get_policy("p0").has_value() &&
              !cas.get_policy("p1").has_value(),
          "failed import left a policy installed");
  require(cas.tokens_outstanding() == 0 && cas.tokens_used() == 0,
          "failed import left token state behind");
}

}  // namespace

int run_persistence(const std::uint8_t* data, std::size_t size) {
  const Golden& g = golden();
  FuzzInput in(data, size);
  const std::uint8_t mode = in.u8();

  switch (mode % 5) {
    case 0: {
      // Arbitrary blob: a typed status, never a throw. A forged kOk would
      // need a valid AEAD tag under the seal key — treat one as fatal.
      const Bytes blob = in.rest();
      cas::MonotonicCounter counter;
      Bytes out;
      const cas::UnsealStatus s =
          cas::unseal_state(g.seal_key, counter, blob, out);
      require(s == cas::UnsealStatus::kMalformed ||
                  s == cas::UnsealStatus::kBadSeal ||
                  s == cas::UnsealStatus::kRolledBack,
              "unseal accepted an arbitrary blob");
      break;
    }
    case 1: {
      // Single-byte corruption and truncation of the genuine blob must be
      // refused; untampered unseal must keep working (and a bumped
      // counter must flag rollback).
      cas::MonotonicCounter counter;
      counter.increment();  // match the value bound into g.sealed
      Bytes out;
      require(cas::unseal_state(g.seal_key, counter, g.sealed, out) ==
                      cas::UnsealStatus::kOk &&
                  out == g.exported,
              "genuine sealed blob no longer unseals");
      Bytes corrupt = g.sealed;
      corrupt[in.u32() % corrupt.size()] ^=
          static_cast<std::uint8_t>(in.u8() | 1);
      require(cas::unseal_state(g.seal_key, counter, corrupt, out) !=
                  cas::UnsealStatus::kOk,
              "unseal accepted a corrupted blob");
      const std::size_t keep = in.u32() % g.sealed.size();
      require(cas::unseal_state(g.seal_key, counter,
                                ByteView(g.sealed).subspan(0, keep),
                                out) != cas::UnsealStatus::kOk,
              "unseal accepted a truncated blob");
      cas::MonotonicCounter advanced;
      advanced.increment();
      advanced.increment();
      require(cas::unseal_state(g.seal_key, advanced, g.sealed, out) ==
                  cas::UnsealStatus::kRolledBack,
              "stale sealed blob not flagged as rollback");
      break;
    }
    case 2: {
      // Arbitrary bytes into import_state: typed Error only, and the
      // service must come out empty-handed.
      const Bytes blob = in.rest();
      const auto cas = g.fresh_service();
      try {
        cas->import_state(blob);
      } catch (const Error&) {
        require_no_partial_state(*cas);
      }
      break;
    }
    case 3: {
      // Corrupt the genuine export at a fuzz-chosen offset. Either the
      // import succeeds (the byte was slack, e.g. inside a config string)
      // or it throws — and then NOTHING may have been applied.
      Bytes corrupt = g.exported;
      corrupt[in.u32() % corrupt.size()] ^=
          static_cast<std::uint8_t>(in.u8() | 1);
      const auto cas = g.fresh_service();
      try {
        cas->import_state(corrupt);
      } catch (const Error&) {
        require_no_partial_state(*cas);
      }
      break;
    }
    case 4: {
      // Lossless round trip, plus seal→unseal→import end to end.
      const auto cas = g.fresh_service();
      cas->import_state(g.exported);
      require(cas->export_state() == g.exported,
              "import/export round trip changed the state");
      require(cas->get_policy("p0").has_value() &&
                  cas->get_policy("p1").has_value(),
              "round-tripped state lost a policy");
      require(cas->tokens_outstanding() == 2,
              "round-tripped state lost tokens");
      break;
    }
  }
  return 0;
}

}  // namespace sinclave::fuzz

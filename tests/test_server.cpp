// Tests for the concurrent CAS serving layer (src/server/):
//  * thread pool and metrics primitives,
//  * the policy table under racing installs, LRU SigStruct cache semantics
//    (and its locking when puts and takes race eviction),
//  * retrievals through a bound CasServer and cas::CasClient, the one
//    request path: verify-memo invalidation, stale pools discarded by
//    the pop's stamp check (racing premints included), the pooled
//    credential being the minted one, premint batching, typed serving
//    failures,
//  * concurrent instance retrievals across sessions (token uniqueness),
//  * cached (pre-minted) credentials remain fully usable end to end,
//  * one-time-token / singleton guarantees under racing replays,
//  * metrics sanity after serving real traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "core/predictor.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"
#include "runtime/starter.h"
#include "server/cas_server.h"
#include "server/metrics.h"
#include "server/sigstruct_cache.h"
#include "server/thread_pool.h"
#include "workload/load_gen.h"
#include "workload/testbed.h"

namespace sinclave::server {
namespace {

using namespace std::chrono_literals;

// --- primitives ------------------------------------------------------------

TEST(ThreadPool, RunsAllSubmittedJobs) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) pool.submit([&done] { ++done; });
  pool.drain();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueuedJobs) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&done] { ++done; });
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, JobExceptionsDoNotKillWorkers) {
  ThreadPool pool(1);
  std::atomic<int> done{0};
  pool.submit([] { throw Error("boom"); });
  pool.submit([&done] { ++done; });
  pool.drain();
  EXPECT_EQ(done.load(), 1);
}

TEST(Metrics, HistogramQuantilesAreOrderedAndBracketed) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record(std::chrono::microseconds(i * 10));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_LE(s.p50.count(), s.p90.count());
  EXPECT_LE(s.p90.count(), s.p99.count());
  EXPECT_LE(s.p99.count(), s.max.count());
  // p50 of 10..1000us must land in the same order of magnitude as 500us
  // (bucketed estimate, x1.5 resolution).
  EXPECT_GE(s.p50, std::chrono::microseconds(300));
  EXPECT_LE(s.p50, std::chrono::microseconds(800));
  EXPECT_EQ(s.max, std::chrono::microseconds(1000));
}

TEST(Metrics, HistogramIsThreadSafe) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i)
        h.record(std::chrono::microseconds(100));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, 4000u);
}

TEST(Metrics, NegativeAndZeroDurationsAreClamped) {
  LatencyHistogram h;
  h.record(std::chrono::nanoseconds(-5000));
  h.record(std::chrono::nanoseconds(0));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.sum.count(), 0);  // the negative sample cannot poison the sum
  EXPECT_EQ(s.max.count(), 0);
  EXPECT_EQ(s.mean().count(), 0);
  EXPECT_LE(s.p50, s.max);
}

TEST(Metrics, BucketUpperBoundsAreInclusive) {
  // Regression: truncated boundary precomputation shaved 1 ns off bounds
  // that are not double-representable, pushing a sample sitting exactly
  // on a bucket's upper bound into the next bucket.
  using std::chrono::nanoseconds;
  const nanoseconds bound =
      LatencyHistogram::bucket_bound(std::chrono::microseconds(2));
  // The boundary value belongs to its own bucket...
  EXPECT_EQ(LatencyHistogram::bucket_bound(bound), bound);
  LatencyHistogram at;
  at.record(bound);
  EXPECT_EQ(at.snapshot().p50, bound);
  // ...and one nanosecond past it belongs to the next.
  LatencyHistogram past;
  past.record(bound + nanoseconds(1));
  EXPECT_GT(past.snapshot().p50, bound);
}

TEST(Metrics, MergeAndResetRacingRecordKeepInvariants) {
  LatencyHistogram h, other;
  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    std::uint64_t i = 0;
    while (!stop)
      h.record(std::chrono::microseconds(1 + (i++ % 3000)));
  });
  std::thread churner([&] {
    for (int i = 0; i < 200; ++i) {
      other.record(std::chrono::microseconds(50));
      h.merge(other);
      h.reset();
    }
    stop = true;
  });
  for (int i = 0; i < 50; ++i) {
    const auto s = h.snapshot();
    EXPECT_GE(s.sum.count(), 0);
    EXPECT_GE(s.mean().count(), 0);
    EXPECT_LE(s.p50, s.p90);
    EXPECT_LE(s.p90, s.p99);
    EXPECT_LE(s.p99, s.max);
  }
  recorder.join();
  churner.join();
}

TEST(Metrics, InFlightGaugeTracksHighWaterMark) {
  ServerMetrics m;
  m.enter_in_flight();
  m.enter_in_flight();
  m.enter_in_flight();
  m.leave_in_flight();
  EXPECT_EQ(m.requests_in_flight.load(), 2u);
  EXPECT_EQ(m.max_in_flight.load(), 3u);
  m.leave_in_flight();
  m.leave_in_flight();
  EXPECT_EQ(m.requests_in_flight.load(), 0u);
  EXPECT_EQ(m.max_in_flight.load(), 3u);  // watermark survives
}

TEST(PolicyTable, ConcurrentMixedAccess) {
  quote::AttestationService attestation;
  crypto::Drbg key_rng = crypto::Drbg::from_seed(5, "policy-table-identity");
  cas::CasService cas(&attestation, crypto::Ed25519KeyPair::generate(key_rng),
                      crypto::Drbg::from_seed(6, "policy-table"));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&cas, t] {
      for (int i = 0; i < 200; ++i) {
        cas::Policy p;
        p.session_name = "s" + std::to_string((t * 7 + i) % 20);
        p.config.program = "prog";
        cas.install_policy(p);
        const auto got = cas.get_policy(p.session_name);
        EXPECT_TRUE(got.has_value() && got->config.program == "prog");
      }
    });
  for (auto& t : threads) t.join();
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(cas.get_policy("s" + std::to_string(i)).has_value());
  EXPECT_FALSE(cas.get_policy("s20").has_value());
}

/// A stamp for the cache's own tests: what the credentials were minted
/// from only has to differ between `tag`s.
std::shared_ptr<const MintStamp> test_stamp(std::uint16_t tag) {
  auto stamp = std::make_shared<MintStamp>();
  stamp->common.isv_svn = tag;
  return stamp;
}

TEST(SigStructCacheTest, TakeFromEmptyIsMiss) {
  SigStructCache cache(8);
  EXPECT_FALSE(cache.take("s", *test_stamp(1)).has_value());
  EXPECT_EQ(cache.sessions(), 0u);  // a miss creates no pool
}

TEST(SigStructCacheTest, PutTakeRoundTripIsHit) {
  SigStructCache cache(8);
  const auto stamp = test_stamp(1);
  cas::MintedCredential cred;
  cred.token.data[0] = 7;
  cred.mr_enclave.data[0] = 9;
  cred.sigstruct = stamp->common;
  cred.sigstruct.enclave_hash = cred.mr_enclave;
  cred.sigstruct.signature = Bytes{1, 2, 3};
  cache.put_all("s", stamp, {cred});
  EXPECT_EQ(cache.pooled("s"), 1u);

  const auto taken = cache.take("s", *stamp);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->token, cred.token);
  EXPECT_EQ(taken->mr_enclave, cred.mr_enclave);
  EXPECT_EQ(taken->sigstruct, cred.sigstruct);  // rebuilt from the stamp
  EXPECT_EQ(cache.pooled("s"), 0u);
  // Pool drained: next take is a miss.
  EXPECT_FALSE(cache.take("s", *stamp).has_value());
}

TEST(SigStructCacheTest, TakeDiscardsRunsOfAnotherStampWhole) {
  SigStructCache cache(8);
  const auto old_stamp = test_stamp(1);
  const auto new_stamp = test_stamp(2);
  std::vector<cas::MintedCredential> stale(3), fresh(2);
  fresh[0].token.data[0] = 1;
  fresh[1].token.data[0] = 2;
  cache.put_all("s", old_stamp, std::move(stale));
  cache.put_all("s", new_stamp, std::move(fresh));
  EXPECT_EQ(cache.pooled("s"), 5u);

  // An equal stamp at another address serves too.
  const MintStamp request = *new_stamp;
  const auto taken = cache.take("s", request);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->token.data[0], 1);
  EXPECT_EQ(cache.pooled("s"), 1u);  // the old run went whole
  EXPECT_EQ(cache.size(), 1u);
  // The old stamp now finds only the new run, and discards it.
  EXPECT_FALSE(cache.take("s", *old_stamp).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.sessions(), 0u);
}

TEST(SigStructCacheTest, LruEvictsLeastRecentlyUsedSession) {
  SigStructCache cache(4);
  const auto stamp = test_stamp(1);
  cas::MintedCredential cred;
  for (int i = 0; i < 2; ++i) cache.put_all("old", stamp, {cred});
  for (int i = 0; i < 2; ++i) cache.put_all("hot", stamp, {cred});
  // Touch "old"→"hot" order: make "hot" most recent, then overflow.
  (void)cache.take("hot", *stamp);
  cache.put_all("hot", stamp, {cred});  // back to 2+2, "hot" most recent
  cache.put_all("hot", stamp, {cred});  // 5 > capacity 4: evict from "old"
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_LT(cache.pooled("old"), 2u);
  EXPECT_EQ(cache.pooled("hot"), 3u);
}

TEST(SigStructCacheTest, PutAllDepositsBatchInOrder) {
  SigStructCache cache(8);
  const auto stamp = test_stamp(1);
  std::vector<cas::MintedCredential> batch(3);
  for (int i = 0; i < 3; ++i) batch[i].token.data[0] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(cache.put_all("s", stamp, std::move(batch)), 3u);
  EXPECT_EQ(cache.pooled("s"), 3u);
  // FIFO: the oldest deposit is taken first.
  for (int i = 0; i < 3; ++i) {
    const auto taken = cache.take("s", *stamp);
    ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(taken->token.data[0], i + 1);
  }
  EXPECT_EQ(cache.put_all("s", stamp, {}), 0u);
  EXPECT_EQ(cache.pooled("s"), 0u);
}

TEST(SigStructCacheTest, PutAllEvictsOverCapacityLikePuts) {
  SigStructCache cache(4);
  const auto stamp = test_stamp(1);
  cas::MintedCredential cred;
  for (int i = 0; i < 3; ++i) cache.put_all("old", stamp, {cred});
  std::vector<cas::MintedCredential> batch(3);
  cache.put_all("hot", stamp, std::move(batch));  // 6 > 4: "old" first
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.pooled("hot"), 3u);
  EXPECT_EQ(cache.pooled("old"), 1u);
}

TEST(SigStructCacheTest, FlushDiscardsSessionPool) {
  SigStructCache cache(8);
  cas::MintedCredential cred;
  cache.put_all("s", test_stamp(1), {cred});
  cache.put_all("s", test_stamp(2), {cred});
  EXPECT_EQ(cache.flush("s"), 2u);
  EXPECT_EQ(cache.pooled("s"), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SigStructCacheTest, EvictionErasesDrainedSessionPools) {
  SigStructCache cache(2);
  const auto stamp = test_stamp(1);
  cas::MintedCredential cred;
  cache.put_all("old", stamp, {cred});
  cache.put_all("hot", stamp, {cred});
  EXPECT_EQ(cache.sessions(), 2u);
  cache.put_all("hot", stamp, {cred});  // 3 > capacity 2: "old" drained
  EXPECT_EQ(cache.pooled("old"), 0u);
  EXPECT_EQ(cache.sessions(), 1u);  // the empty pool is gone, not leaked
}

// The cache's concurrency test: puts under two stamps and takes by one
// race on one session against a second thread whose puts overflow
// capacity across eight others, evicting (and erasing) pools under the
// first thread's feet.
TEST(SigStructCacheTest, PutAndTakeRacingEvictionStayCoherent) {
  SigStructCache cache(4);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> served_stale{0};
  std::thread owner([&] {
    const auto current = test_stamp(2);
    const auto stale = test_stamp(1);
    cas::MintedCredential even, odd;
    odd.token.data[0] = 1;
    do {
      cache.put_all("s", stale, {odd});
      cache.put_all("s", current, {even});
      if (const auto taken = cache.take("s", *current);
          taken.has_value() && taken->token.data[0] % 2 != 0)
        ++served_stale;
      ++cycles;
    } while (!stop);
  });
  std::thread evictor([&] {
    const auto stamp = test_stamp(3);
    cas::MintedCredential cred;
    for (int i = 0; i < 2000; ++i)
      cache.put_all("x" + std::to_string(i % 8), stamp, {cred});
    stop = true;
  });
  owner.join();
  evictor.join();
  EXPECT_GT(cycles.load(), 0u);
  EXPECT_EQ(served_stale.load(), 0u);

  // Whatever interleaving happened, the books close once both stop.
  std::size_t pooled_sum = 0;
  std::size_t non_empty = 0;
  for (const std::string session :
       {"s", "x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}) {
    const std::size_t n = cache.pooled(session);
    pooled_sum += n;
    if (n > 0) ++non_empty;
  }
  EXPECT_EQ(cache.size(), pooled_sum);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_EQ(cache.sessions(), non_empty);  // drained pools were erased
}

// --- serving layer on a full testbed ---------------------------------------

class CasServerTest : public ::testing::Test {
 protected:
  static constexpr const char* kServerAddress = "cas.fleet";

  CasServerTest()
      : bed_(workload::TestbedConfig{.seed = 71}),
        image_(core::EnclaveImage::synthetic("srv", sgx::kPageSize,
                                             4 * sgx::kPageSize)),
        signer_(&bed_.user_signer()),
        signed_(signer_.sign_sinclave(image_)) {}

  cas::Policy singleton_policy(const std::string& name) {
    cas::Policy p;
    p.session_name = name;
    p.expected_signer =
        crypto::sha256(bed_.user_signer().public_key().modulus_be());
    p.require_singleton = true;
    p.base_hash = signed_.base_hash;
    p.config.program = "noop";
    return p;
  }

  /// One retrieval from the server bound at `address` (the bed's own
  /// server listens at bed_.cas_address()).
  cas::InstanceResult retrieve(const std::string& name,
                               const sgx::SigStruct& common,
                               const std::string& address = kServerAddress) {
    cas::CasClientConfig config;
    config.address = address;
    return cas::CasClient(&bed_.network(), config).get_instance(name, common);
  }
  cas::InstanceResult retrieve(const std::string& name) {
    return retrieve(name, signed_.sigstruct);
  }

  workload::Testbed bed_;
  core::EnclaveImage image_;
  core::Signer signer_;
  core::SinclaveSignedImage signed_;
};

TEST_F(CasServerTest, ServesInstanceRequestsOverTheNetwork) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 2});
  server.bind(bed_.network(), kServerAddress);

  cas::CasClient client(&bed_.network(),
                        cas::CasClientConfig{.address = kServerAddress, .retry = {}});
  const auto resp = client.get_instance("s", signed_.sigstruct);
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  EXPECT_FALSE(resp.token.is_zero());
  EXPECT_EQ(resp.verifier_id, bed_.cas().verifier_id());
  EXPECT_TRUE(resp.singleton_sigstruct.signature_valid());
  core::InstancePage page;
  page.token = resp.token;
  page.verifier_id = resp.verifier_id;
  EXPECT_EQ(resp.singleton_sigstruct.enclave_hash,
            core::MeasurementPredictor::predict(signed_.base_hash, page));

  EXPECT_EQ(server.metrics().get_instance.requests.load(), 1u);
  EXPECT_EQ(server.metrics().get_instance.errors.load(), 0u);
  EXPECT_EQ(server.metrics().tokens_issued.load(), 1u);
  EXPECT_EQ(server.metrics().get_instance.latency.snapshot().count, 1u);
}

TEST_F(CasServerTest, ErrorPathsMatchTheBedServer) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 1});
  server.bind(bed_.network(), kServerAddress);

  EXPECT_EQ(retrieve("nope").status.code, StatusCode::kUnknownSession);

  sgx::SigStruct tampered = signed_.sigstruct;
  tampered.signature[3] ^= 1;
  EXPECT_EQ(retrieve("s", tampered).status.code, StatusCode::kBadSignature);
  // Same typed outcome from the bed's own (default-config) server.
  EXPECT_EQ(retrieve("s", tampered, bed_.cas_address()).status.code,
            StatusCode::kBadSignature);
  EXPECT_EQ(server.metrics().get_instance.errors.load(), 2u);
}

TEST_F(CasServerTest, ServesPoliciesInstalledBeforeAndAfterItWasBuilt) {
  bed_.cas().install_policy(singleton_policy("early"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 1});
  server.bind(bed_.network(), kServerAddress);
  bed_.cas().install_policy(singleton_policy("late"));
  EXPECT_TRUE(retrieve("early").ok());
  EXPECT_TRUE(retrieve("late").ok());

  // A second server over the same service, come and gone, changes nothing
  // for the one still serving.
  { CasServer second(&bed_.cas(), CasServerConfig{.workers = 1}); }
  EXPECT_TRUE(retrieve("early").ok());
  EXPECT_EQ(retrieve("never").status.code, StatusCode::kUnknownSession);
}

TEST_F(CasServerTest, PolicyReplaceTakesEffectImmediately) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 1});
  server.bind(bed_.network(), kServerAddress);
  ASSERT_TRUE(retrieve("s").ok());

  // Software update: new image version supersedes the old base hash.
  core::EnclaveImage v2 = image_;
  v2.code[0] ^= 0xff;
  const auto signed_v2 = signer_.sign_sinclave(v2);
  cas::Policy p2 = singleton_policy("s");
  p2.base_hash = signed_v2.base_hash;
  bed_.cas().install_policy(p2);

  EXPECT_FALSE(retrieve("s").ok());
  EXPECT_TRUE(retrieve("s", signed_v2.sigstruct).ok());
}

TEST_F(CasServerTest, PremintedCredentialsServeAsCacheHits) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 2});
  server.bind(bed_.network(), kServerAddress);

  ASSERT_EQ(server.premint("s", signed_.sigstruct, 3), 3u);
  EXPECT_EQ(server.sigstruct_cache().size(), 3u);

  const auto resp = retrieve("s");
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  EXPECT_EQ(server.metrics().sigstruct_cache_hits.load(), 1u);
  EXPECT_EQ(server.metrics().sigstruct_cache_misses.load(), 0u);
  EXPECT_EQ(server.sigstruct_cache().size(), 2u);

  // A cached credential is a first-class one: the enclave built from it
  // initializes and attests end to end.
  core::InstancePage page;
  page.token = resp.token;
  page.verifier_id = resp.verifier_id;
  const auto started = runtime::start_enclave(
      bed_.cpu(), image_, resp.singleton_sigstruct, page);
  ASSERT_TRUE(started.ok());

  auto rt = bed_.make_runtime(runtime::RuntimeMode::kSinclave);
  bed_.programs().register_program(
      "noop", [](runtime::AppContext&) { return 0; });
  runtime::RunOptions options;
  options.cas_address = kServerAddress;
  options.cas_identity = bed_.cas().identity();
  options.session_name = "s";
  const auto run = rt.run(started, options);
  EXPECT_TRUE(run.ok) << run.error;
  EXPECT_EQ(bed_.cas().tokens_used(), 1u);
}

TEST_F(CasServerTest, SignerRotationInvalidatesVerifyMemo) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 1});
  server.bind(bed_.network(), kServerAddress);
  ASSERT_TRUE(retrieve("s").ok());  // memoized

  // Rotate the session's signer pin (same base hash). The old signer's
  // memoized SigStruct must be re-checked and rejected, exactly as a
  // server that never memoized it (the bed's) rejects it.
  auto rng = crypto::Drbg::from_seed(77, "rotate");
  const auto new_key = crypto::RsaKeyPair::generate(rng, 1024);
  bed_.cas().add_signer_key(new_key);
  cas::Policy rotated = singleton_policy("s");
  rotated.expected_signer =
      crypto::sha256(new_key.public_key().modulus_be());
  bed_.cas().install_policy(rotated);

  const auto resp = retrieve("s");
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status.code, StatusCode::kWrongSigner);
  EXPECT_EQ(resp.status.code,
            retrieve("s", signed_.sigstruct, bed_.cas_address()).status.code);
}

TEST_F(CasServerTest, ResignedCommonSigstructFlushesStalePool) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 1});
  server.bind(bed_.network(), kServerAddress);
  ASSERT_EQ(server.premint("s", signed_.sigstruct, 2), 2u);

  // Same image re-signed (same base hash, different SigStruct metadata):
  // pooled credentials copied the old metadata and must not be served.
  core::EnclaveImage resigned = image_;
  resigned.isv_svn = 2;
  const auto signed_v2 = signer_.sign_sinclave(resigned);
  ASSERT_EQ(signed_v2.base_hash.state, signed_.base_hash.state);

  const auto resp = retrieve("s", signed_v2.sigstruct);
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  EXPECT_EQ(resp.singleton_sigstruct.isv_svn, 2);
  EXPECT_EQ(server.sigstruct_cache().pooled("s"), 0u);  // stale pool gone
  EXPECT_EQ(server.metrics().sigstruct_cache_hits.load(), 0u);
}

// The test above meets a stale pool the premint of the old SigStruct
// left. This one meets what a premint() that raced a policy rotation
// deposits once the memo already holds the new policy: runs stamped with
// the old base hash, and with a re-signed SigStruct of the new image. The
// pop compares stamps and discards both whole.
TEST_F(CasServerTest, PopTimeCheckDropsCredentialsARacedPremintLeftStale) {
  const cas::Policy old_policy = singleton_policy("s");
  bed_.cas().install_policy(old_policy);
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 1});
  server.bind(bed_.network(), kServerAddress);

  // Rotate to a new image, and retrieve once so the memo holds it.
  core::EnclaveImage v2 = image_;
  v2.code[0] ^= 0xff;
  const auto signed_v2 = signer_.sign_sinclave(v2);
  cas::Policy new_policy = singleton_policy("s");
  new_policy.base_hash = signed_v2.base_hash;
  bed_.cas().install_policy(new_policy);
  ASSERT_TRUE(retrieve("s", signed_v2.sigstruct).ok());

  // The raced premint's leftovers: credentials minted under the old base
  // hash, then credentials minted from a re-signed v2 SigStruct (same
  // base hash, another isv_svn).
  core::EnclaveImage v2_resigned = v2;
  v2_resigned.isv_svn = 7;
  const auto signed_v2_resigned = signer_.sign_sinclave(v2_resigned);
  ASSERT_EQ(signed_v2_resigned.base_hash.state, signed_v2.base_hash.state);
  server.sigstruct_cache().put_all(
      "s",
      std::make_shared<const MintStamp>(
          MintStamp{*old_policy.base_hash, signed_.sigstruct}),
      bed_.cas().mint_batch(old_policy, signed_.sigstruct, 2));
  server.sigstruct_cache().put_all(
      "s",
      std::make_shared<const MintStamp>(
          MintStamp{*new_policy.base_hash, signed_v2_resigned.sigstruct}),
      bed_.cas().mint_batch(new_policy, signed_v2_resigned.sigstruct, 2));
  ASSERT_EQ(server.sigstruct_cache().pooled("s"), 4u);

  const auto resp = retrieve("s", signed_v2.sigstruct);
  ASSERT_TRUE(resp.ok()) << resp.status.message();
  core::InstancePage page;
  page.token = resp.token;
  page.verifier_id = resp.verifier_id;
  EXPECT_EQ(resp.singleton_sigstruct.enclave_hash,
            core::MeasurementPredictor::predict(signed_v2.base_hash, page));
  const sgx::SigStruct& got = resp.singleton_sigstruct;
  const sgx::SigStruct& want = signed_v2.sigstruct;
  EXPECT_EQ(got.signer_key, want.signer_key);
  EXPECT_EQ(got.attributes, want.attributes);
  EXPECT_EQ(got.attribute_mask, want.attribute_mask);
  EXPECT_EQ(got.isv_prod_id, want.isv_prod_id);
  EXPECT_EQ(got.isv_svn, want.isv_svn);
  EXPECT_EQ(got.date, want.date);
  EXPECT_EQ(got.debug_allowed, want.debug_allowed);
  EXPECT_EQ(server.metrics().sigstruct_cache_hits.load(), 0u);
  EXPECT_EQ(server.sigstruct_cache().pooled("s"), 0u);
}

// A pooled credential keeps only its token, MRENCLAVE and signature; the
// SigStruct served is rebuilt from the pool's stamp and must be the one
// mint_batch signed, byte for byte.
TEST_F(CasServerTest, PooledCredentialIsTheMintedOne) {
  const cas::Policy policy = singleton_policy("s");
  bed_.cas().install_policy(policy);
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 1});
  server.bind(bed_.network(), kServerAddress);

  const std::vector<cas::MintedCredential> minted =
      bed_.cas().mint_batch(policy, signed_.sigstruct, 3);
  server.sigstruct_cache().put_all(
      "s",
      std::make_shared<const MintStamp>(
          MintStamp{*policy.base_hash, signed_.sigstruct}),
      minted);

  for (const cas::MintedCredential& want : minted) {
    const auto got = retrieve("s");
    ASSERT_TRUE(got.ok()) << got.status.message();
    EXPECT_EQ(got.token, want.token);
    EXPECT_EQ(got.singleton_sigstruct, want.sigstruct);
    EXPECT_EQ(got.singleton_sigstruct.serialize(), want.sigstruct.serialize());
    EXPECT_TRUE(got.singleton_sigstruct.signature_valid());
  }
  EXPECT_EQ(server.metrics().sigstruct_cache_hits.load(), 3u);
  EXPECT_EQ(server.metrics().sigstruct_cache_misses.load(), 0u);
}

// A thread premints image A's credentials in a loop — through premint(),
// and as a premint that read the policy before the rotation deposits
// them — while this thread installs image B's policy and retrieves. No
// retrieval may be served a credential minted for A.
TEST_F(CasServerTest, RacingStalePremintIsNeverServed) {
  const cas::Policy policy_a = singleton_policy("s");
  bed_.cas().install_policy(policy_a);
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 2});
  server.bind(bed_.network(), kServerAddress);
  ASSERT_EQ(server.premint("s", signed_.sigstruct, 4), 4u);

  core::EnclaveImage image_b = image_;
  image_b.code[0] ^= 0xff;
  const auto signed_b = signer_.sign_sinclave(image_b);
  cas::Policy policy_b = singleton_policy("s");
  policy_b.base_hash = signed_b.base_hash;

  const auto stamp_a = std::make_shared<const MintStamp>(
      MintStamp{*policy_a.base_hash, signed_.sigstruct});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stale_deposits{0};
  std::thread preminter([&] {
    while (!stop.load()) {
      (void)server.premint("s", signed_.sigstruct, 2);
      server.sigstruct_cache().put_all(
          "s", stamp_a, bed_.cas().mint_batch(policy_a, signed_.sigstruct, 2));
      ++stale_deposits;
    }
  });
  bed_.cas().install_policy(policy_b);
  // The pool holds runs deposited under A after the rotation before the
  // first retrieval, and more arrive while they run.
  const std::uint64_t seen = stale_deposits.load();
  while (stale_deposits.load() == seen) std::this_thread::yield();
  std::vector<cas::InstanceResult> served;
  for (int i = 0; i < 50; ++i) served.push_back(retrieve("s", signed_b.sigstruct));
  stop = true;
  preminter.join();

  for (const cas::InstanceResult& got : served) {
    ASSERT_TRUE(got.ok()) << got.status.message();
    core::InstancePage page;
    page.token = got.token;
    page.verifier_id = got.verifier_id;
    EXPECT_EQ(got.singleton_sigstruct.enclave_hash,
              core::MeasurementPredictor::predict(signed_b.base_hash, page));
    EXPECT_TRUE(got.singleton_sigstruct.signature_valid());
  }
}

TEST_F(CasServerTest, PremintCoalescesIntoMintBatches) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 2});
  server.bind(bed_.network(), kServerAddress);

  // premint signs in batches of at most 8: ceil(17/8) = 3 batches.
  ASSERT_EQ(server.premint("s", signed_.sigstruct, 17), 17u);
  EXPECT_EQ(server.sigstruct_cache().pooled("s"), 17u);
  EXPECT_EQ(server.metrics().preminted_credentials.load(), 17u);
  EXPECT_EQ(server.metrics().mint_batches.load(), 3u);

  // Every pooled credential issues as a first-class hit.
  for (int i = 0; i < 17; ++i) ASSERT_TRUE(retrieve("s").ok());
  EXPECT_EQ(server.metrics().sigstruct_cache_hits.load(), 17u);
  EXPECT_EQ(server.metrics().sigstruct_cache_misses.load(), 0u);
}

// A serving failure on the one path reaches the client as a typed
// kInternal: the gate that would arm the minted token throws.
TEST_F(CasServerTest, ServingErrorReachesTheClientAsTypedInternal) {
  struct ThrowingGate : cas::ReplicationGate {
    Status register_token(const core::AttestationToken&, const std::string&,
                          const sgx::Measurement&) override {
      throw Error("gate: log unavailable");
    }
    Status spend_token(const core::AttestationToken&, const std::string&,
                       const sgx::Measurement&) override {
      return Status(StatusCode::kUnavailable);
    }
  } gate;
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 1});
  server.bind(bed_.network(), kServerAddress);
  bed_.cas().set_replication_gate(&gate);

  cas::CasClientConfig config;
  config.address = kServerAddress;
  config.retry.max_attempts = 3;  // a retryable code would be retried
  cas::CasClient client(&bed_.network(), config);
  const auto got = client.get_instance("s", signed_.sigstruct);
  server.unbind();
  bed_.cas().set_replication_gate(nullptr);

  EXPECT_EQ(got.status.code, StatusCode::kInternal);
  EXPECT_FALSE(got.status.retryable());
  EXPECT_EQ(got.attempts, 1u);
  EXPECT_EQ(server.metrics().get_instance.requests.load(), 1u);
  EXPECT_EQ(server.metrics().get_instance.errors.load(), 1u);
  EXPECT_EQ(server.metrics().requests_in_flight.load(), 0u);
  EXPECT_EQ(server.metrics().tokens_issued.load(), 0u);
  EXPECT_EQ(bed_.cas().tokens_outstanding(), 0u);  // never armed
}

TEST_F(CasServerTest, ConcurrentRequestsAcrossSessionsIssueUniqueTokens) {
  constexpr std::size_t kSessions = 4;
  std::vector<std::string> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back("fleet-" + std::to_string(i));
    bed_.cas().install_policy(singleton_policy(sessions.back()));
  }
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 4});
  server.bind(bed_.network(), kServerAddress);

  workload::LoadGenConfig load;
  load.clients = 8;
  load.requests_per_client = 25;
  load.address = kServerAddress;
  load.sessions = sessions;
  const auto result =
      workload::run_instance_load(bed_.network(), signed_.sigstruct, load);

  EXPECT_EQ(result.failed, 0u) << result.first_error;
  EXPECT_EQ(result.ok, 200u);
  const std::set<std::string> unique(result.tokens.begin(),
                                     result.tokens.end());
  EXPECT_EQ(unique.size(), 200u);  // no token ever issued twice
  EXPECT_EQ(bed_.cas().tokens_outstanding(), 200u);
  EXPECT_EQ(server.metrics().get_instance.requests.load(), 200u);
  EXPECT_EQ(server.metrics().get_instance.errors.load(), 0u);
  EXPECT_EQ(server.metrics().get_instance.latency.snapshot().count, 200u);
}

TEST_F(CasServerTest, ClosedLoopWithThinkTimeCompletesAndPacesItself) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 2});
  server.bind(bed_.network(), kServerAddress);

  workload::LoadGenConfig load;
  load.clients = 4;
  load.requests_per_client = 5;
  load.address = kServerAddress;
  load.sessions = {"s"};
  load.think_time = workload::ThinkTime::kConstant;
  load.mean_think = std::chrono::milliseconds(5);
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      workload::run_instance_load(bed_.network(), signed_.sigstruct, load);
  const auto wall = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(result.failed, 0u) << result.first_error;
  EXPECT_EQ(result.ok, 20u);
  // 5 requests x 5ms constant think per client: the run cannot finish
  // faster than the think gaps it must sleep through.
  EXPECT_GE(wall, std::chrono::milliseconds(25));
}

// The core singleton guarantee under concurrency: many attesters racing
// with the SAME one-time token — whatever the interleaving, exactly one
// attestation succeeds and the token is spent exactly once.
TEST_F(CasServerTest, RacingReplaysOfOneTokenAttestExactlyOnce) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServer server(&bed_.cas(), CasServerConfig{.workers = 4});
  server.bind(bed_.network(), kServerAddress);

  // One genuine singleton enclave, started via the serving layer.
  const auto start = runtime::start_singleton_enclave(
      bed_.cpu(), bed_.network(), kServerAddress, image_, signed_.sigstruct,
      "s");
  ASSERT_TRUE(start.ok()) << start.error;

  constexpr int kRacers = 8;
  std::atomic<int> accepted{0}, rejected{0};
  std::vector<std::thread> racers;
  for (int i = 0; i < kRacers; ++i) {
    racers.emplace_back([&, i] {
      // Each racer plays the runtime's attestation flow with its own
      // channel (own DH key, own quote) but the same one-time token.
      cas::AttestedChannel channel(
          &bed_.network(),
          cas::CasClientConfig{.address = kServerAddress,
                               .retry = {.max_attempts = 1}},
          crypto::Drbg::from_seed(1000 + i, "racer-channel"));
      const sgx::Report report =
          bed_.cpu().ereport(start.enclave.id, bed_.qe().target_info(),
                             net::channel_binding(channel.dh_public()));
      const auto quote = bed_.qe().generate_quote(report);
      ASSERT_TRUE(quote.has_value());

      cas::AttestPayload payload;
      payload.session_name = "s";
      payload.quote = *quote;
      payload.token = start.token;

      if (channel.attest(bed_.cas().identity(), payload).ok())
        ++accepted;
      else
        ++rejected;
    });
  }
  for (auto& t : racers) t.join();

  EXPECT_EQ(accepted.load(), 1);
  EXPECT_EQ(rejected.load(), kRacers - 1);
  EXPECT_EQ(bed_.cas().tokens_used(), 1u);
  EXPECT_EQ(bed_.cas().tokens_outstanding(), 0u);
  EXPECT_EQ(server.metrics().attest.requests.load(),
            static_cast<std::uint64_t>(kRacers));
}

// --- overload protection: admission shedding + request deadlines ------------

TEST_F(CasServerTest, AdmissionLimitShedsTypedWithRetryAfterHint) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServerConfig cfg;
  cfg.workers = 2;
  cfg.backend_io = std::chrono::milliseconds(20);  // park admitted requests
  cfg.admission_limit = 2;
  cfg.shed_retry_after = std::chrono::milliseconds(7);
  CasServer server(&bed_.cas(), cfg);
  server.bind(bed_.network(), kServerAddress);

  constexpr int kClients = 8;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::atomic<long long> hint_ms{-1};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      cas::CasClient client(
          &bed_.network(),
          cas::CasClientConfig{.address = kServerAddress,
                               .retry = {.max_attempts = 1}});
      const auto got = client.get_instance("s", signed_.sigstruct);
      if (got.ok()) {
        ++ok;
      } else if (got.status.code == StatusCode::kUnavailable) {
        ++shed;
        if (const auto hint = parse_retry_after(got.status.detail))
          hint_ms = hint->count();
      } else {
        ++other;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_GT(ok.load(), 0);    // the admitted window was served
  EXPECT_GT(shed.load(), 0);  // the overflow was refused, not queued forever
  EXPECT_EQ(other.load(), 0); // every refusal was the typed shed status
  EXPECT_EQ(ok.load() + shed.load(), kClients);
  // The refusal carries the configured retry-after hint, parseable by the
  // canonical extractor (the format is a wire contract, not prose).
  EXPECT_EQ(hint_ms.load(), 7);
  const auto& m = server.metrics();
  EXPECT_EQ(m.requests_shed.load(), static_cast<std::uint64_t>(shed.load()));
  // Accounting closure: shed refusals count as answered-with-error, so
  // requests == ok + errors and nothing vanishes.
  EXPECT_EQ(m.get_instance.requests.load(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(m.get_instance.errors.load(),
            static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(m.tokens_issued.load(), static_cast<std::uint64_t>(ok.load()));
}

TEST_F(CasServerTest, RequestDeadlineRefusesFastWithoutOccupyingTimers) {
  bed_.cas().install_policy(singleton_policy("s"));
  CasServerConfig cfg;
  cfg.workers = 1;
  cfg.backend_io = std::chrono::milliseconds(50);
  cfg.request_deadline = std::chrono::milliseconds(1);  // can never fit 50ms
  CasServer server(&bed_.cas(), cfg);
  server.bind(bed_.network(), kServerAddress);

  cas::CasClient client(&bed_.network(),
                        cas::CasClientConfig{.address = kServerAddress,
                                             .retry = {.max_attempts = 3}});
  const auto start = std::chrono::steady_clock::now();
  const auto got = client.get_instance("s", signed_.sigstruct);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(got.status.code, StatusCode::kDeadlineExceeded);
  // Deliberately non-retryable: the budget is gone, retrying the same
  // doomed request is the storm deadlines exist to stop.
  EXPECT_FALSE(got.status.retryable());
  EXPECT_EQ(got.attempts, 1u);
  // Refused up front — the server never parked the doomed request on the
  // 50 ms backend stall.
  EXPECT_LT(elapsed, std::chrono::milliseconds(40));
  EXPECT_EQ(server.timers().pending(), 0u);
  const auto& m = server.metrics();
  EXPECT_EQ(m.deadline_exceeded.load(), 1u);
  EXPECT_EQ(m.get_instance.errors.load(), 1u);
  EXPECT_EQ(m.tokens_issued.load(), 0u);  // no token minted for a doomed request
}

}  // namespace
}  // namespace sinclave::server

// Tests for the event-driven serving path: SimNetwork's completion-token
// API (async_call + deferred handler-side completion), the timer wheel,
// CasServer's request state machine (backend stalls park on timers, not
// workers), and the open-loop load generator built on top.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cas/client.h"
#include "common/error.h"
#include "core/signer.h"
#include "crypto/sha256.h"
#include "net/sim_network.h"
#include "net/timer_wheel.h"
#include "server/cas_server.h"
#include "workload/load_gen.h"
#include "workload/testbed.h"

namespace sinclave {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// --- SimNetwork completion API ---------------------------------------------

TEST(AsyncNetwork, InlineCompletionDeliversResponse) {
  net::SimNetwork net;
  net.listen_async("svc", [](ByteView req, net::SimNetwork::Completion done) {
    Bytes out{req.begin(), req.end()};
    out.push_back('!');
    done(std::move(out));
  });
  auto conn = net.connect("svc");
  std::atomic<bool> called{false};
  conn.async_call(to_bytes("hi"), [&](Bytes resp, std::exception_ptr error) {
    EXPECT_EQ(error, nullptr);
    EXPECT_EQ(resp, to_bytes("hi!"));
    called = true;
  });
  EXPECT_TRUE(called.load());  // handler completed inline
  EXPECT_EQ(net.round_trips(), 1u);
  // The synchronous form rides on the same async core.
  EXPECT_EQ(conn.call(to_bytes("yo")), to_bytes("yo!"));
}

TEST(AsyncNetwork, DeferredCompletionFromAnotherThread) {
  net::SimNetwork net;
  net::SimNetwork::Completion pending;
  std::mutex mutex;
  std::condition_variable cv;
  bool have = false;
  net.listen_async("svc",
                   [&](ByteView, net::SimNetwork::Completion done) {
                     std::lock_guard lock(mutex);
                     pending = std::move(done);
                     have = true;
                     cv.notify_all();
                   });
  std::thread completer([&] {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return have; });
    pending(to_bytes("later"));
  });
  auto conn = net.connect("svc");
  EXPECT_EQ(conn.call(Bytes{}), to_bytes("later"));  // blocks until deferred
  completer.join();
}

TEST(AsyncNetwork, ShutdownWaitsForDeferredCompletion) {
  net::SimNetwork net;
  std::atomic<bool> completed{false};
  std::thread completer;
  net.listen_async("svc", [&](ByteView, net::SimNetwork::Completion done) {
    completer = std::thread([&completed, done] {
      std::this_thread::sleep_for(30ms);
      completed = true;
      done(Bytes{1});
    });
  });
  auto conn = net.connect("svc");
  std::atomic<bool> responded{false};
  conn.async_call(Bytes{}, [&](Bytes, std::exception_ptr) {
    responded = true;
  });
  net.shutdown("svc");  // must block until the deferred completion fired
  // The guarantee is handler-side: after shutdown, the handler (and
  // whoever completed on its behalf) is done with the request. The client
  // callback races only by a few instructions; join the completer to
  // observe it.
  EXPECT_TRUE(completed.load());
  completer.join();
  EXPECT_TRUE(responded.load());
}

TEST(AsyncNetwork, DroppedCompletionDeliversErrorNotDeadlock) {
  net::SimNetwork net;
  net.listen_async("svc", [](ByteView, net::SimNetwork::Completion done) {
    (void)done;  // handler "forgets" the request; token dies on return
  });
  auto conn = net.connect("svc");
  EXPECT_THROW(conn.call(Bytes{}), Error);
  std::atomic<bool> failed{false};
  conn.async_call(Bytes{}, [&](Bytes, std::exception_ptr error) {
    failed = error != nullptr;
  });
  EXPECT_TRUE(failed.load());
  net.shutdown("svc");  // nothing left in flight
}

TEST(AsyncNetwork, HandlerThrowReachesSyncCaller) {
  net::SimNetwork net;
  net.listen("svc", [](ByteView) -> Bytes { throw Error("boom"); });
  auto conn = net.connect("svc");
  EXPECT_THROW(conn.call(Bytes{}), Error);
  net.shutdown("svc");  // drained despite the throw
}

TEST(AsyncNetwork, CompletionIsExactlyOnceAcrossCopies) {
  net::SimNetwork net;
  net.listen_async("svc", [](ByteView, net::SimNetwork::Completion done) {
    const net::SimNetwork::Completion copy = done;
    copy(Bytes{1});
    done(Bytes{2});  // loses: first completion wins
    copy.fail(std::make_exception_ptr(Error("late")));
  });
  auto conn = net.connect("svc");
  std::atomic<int> calls{0};
  Bytes got;
  conn.async_call(Bytes{}, [&](Bytes resp, std::exception_ptr error) {
    EXPECT_EQ(error, nullptr);
    got = std::move(resp);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(got, Bytes{1});
}

// --- timer wheel ------------------------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  net::TimerWheel wheel;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> order;
  const auto push = [&](int id) {
    std::lock_guard lock(mutex);
    order.push_back(id);
    cv.notify_all();
  };
  wheel.schedule_after(40ms, [&] { push(2); });
  wheel.schedule_after(5ms, [&] { push(1); });
  wheel.schedule_after(0ms, [&] { push(0); });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return order.size() == 3; }));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(wheel.fired(), 3u);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, DestructorFiresPendingCallbacksEarly) {
  std::atomic<bool> fired{false};
  const auto start = Clock::now();
  {
    net::TimerWheel wheel;
    wheel.schedule_after(10s, [&] { fired = true; });
    EXPECT_EQ(wheel.pending(), 1u);
  }
  EXPECT_TRUE(fired.load());  // fired at shutdown, not dropped
  EXPECT_LT(Clock::now() - start, 5s);  // and early, not after 10 s
}

TEST(TimerWheelTest, CallbackExceptionsDoNotKillTheWheel) {
  net::TimerWheel wheel;
  std::atomic<bool> fired{false};
  std::mutex mutex;
  std::condition_variable cv;
  wheel.schedule_after(0ms, [] { throw Error("boom"); });
  wheel.schedule_after(1ms, [&] {
    fired = true;
    std::lock_guard lock(mutex);
    cv.notify_all();
  });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return fired.load(); }));
  EXPECT_EQ(wheel.fired(), 2u);
}

TEST(TimerWheelTest, CancelPreventsTheCallbackFromEverRunning) {
  std::atomic<bool> cancelled_ran{false};
  std::atomic<bool> kept_ran{false};
  {
    net::TimerWheel wheel;
    const auto doomed = wheel.schedule_after(10s, [&] { cancelled_ran = true; });
    wheel.schedule_after(10s, [&] { kept_ran = true; });
    EXPECT_EQ(wheel.pending(), 2u);
    EXPECT_TRUE(wheel.cancel(doomed));
    EXPECT_FALSE(wheel.cancel(doomed));  // second cancel finds nothing pending
    EXPECT_EQ(wheel.pending(), 1u);
    EXPECT_EQ(wheel.cancelled(), 1u);
  }  // the shutdown drain fires the kept timer early but honors the cancel
  EXPECT_FALSE(cancelled_ran.load());
  EXPECT_TRUE(kept_ran.load());
}

TEST(TimerWheelTest, CancelAfterFireReturnsFalse) {
  net::TimerWheel wheel;
  std::mutex mutex;
  std::condition_variable cv;
  bool fired = false;
  const auto id = wheel.schedule_after(0ms, [&] {
    std::lock_guard lock(mutex);
    fired = true;
    cv.notify_all();
  });
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return fired; }));
  EXPECT_FALSE(wheel.cancel(id));       // lost the race: it already ran
  EXPECT_FALSE(wheel.cancel(id + 99));  // unknown ids are never "cancelled"
  EXPECT_EQ(wheel.cancelled(), 0u);
  EXPECT_EQ(wheel.fired(), 1u);
}

TEST(TimerWheelTest, CancelRacingFireDeliversEveryCompletionExactlyOnce) {
  // Regression for the shutdown/cancel race: a timer callback holding a
  // network Completion must resolve exactly once no matter which of
  // {fire, cancel, shutdown-drain} wins. Cancelled callbacks are destroyed
  // unfired, so their Completion delivers the dropped-request error — the
  // caller always hears back, and never twice.
  net::SimNetwork net;
  auto wheel = std::make_unique<net::TimerWheel>();
  std::mutex ids_mutex;
  std::vector<net::TimerWheel::TimerId> ids;
  net.listen_async("svc", [&](ByteView, net::SimNetwork::Completion done) {
    const auto id = wheel->schedule_after(std::chrono::microseconds(50),
                                          [done] { done(Bytes{1}); });
    std::lock_guard lock(ids_mutex);
    ids.push_back(id);
  });
  auto conn = net.connect("svc");

  constexpr int kOps = 400;
  std::atomic<int> delivered{0};
  std::atomic<int> ok{0};
  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    while (!stop.load()) {
      std::optional<net::TimerWheel::TimerId> victim;
      {
        std::lock_guard lock(ids_mutex);
        if (!ids.empty()) {
          victim = ids.back();
          ids.pop_back();
        }
      }
      if (victim.has_value())
        (void)wheel->cancel(*victim);
      else
        std::this_thread::yield();
    }
  });
  for (int i = 0; i < kOps; ++i) {
    conn.async_call(Bytes{}, [&](Bytes, std::exception_ptr error) {
      ++delivered;
      if (error == nullptr) ++ok;
    });
  }
  stop = true;
  canceller.join();
  // Destroying the wheel drains it: surviving timers fire early, cancelled
  // entries are destroyed unfired (their Completions deliver the error).
  wheel.reset();
  EXPECT_EQ(delivered.load(), kOps);
  EXPECT_GT(ok.load(), 0);
  net.shutdown("svc");
}

// --- CasServer: the request state machine -----------------------------------

class AsyncServingTest : public ::testing::Test {
 protected:
  static constexpr const char* kAddress = "cas.async";

  AsyncServingTest()
      : bed_(workload::TestbedConfig{.seed = 97}),
        image_(core::EnclaveImage::synthetic("async", sgx::kPageSize,
                                             4 * sgx::kPageSize)),
        signer_(&bed_.user_signer()),
        signed_(signer_.sign_sinclave(image_)) {}

  void install(const std::string& name) {
    cas::Policy p;
    p.session_name = name;
    p.expected_signer =
        crypto::sha256(bed_.user_signer().public_key().modulus_be());
    p.require_singleton = true;
    p.base_hash = signed_.base_hash;
    p.config.program = "noop";
    bed_.cas().install_policy(p);
  }

  workload::Testbed bed_;
  core::EnclaveImage image_;
  core::Signer signer_;
  core::SinclaveSignedImage signed_;
};

TEST_F(AsyncServingTest, BackendStallsDoNotPinWorkers) {
  install("s");
  server::CasServerConfig cfg;
  cfg.workers = 2;
  cfg.backend_io = 100ms;
  server::CasServer server(&bed_.cas(), cfg);
  server.premint("s", signed_.sigstruct, 16);  // keep the CPU path cheap
  server.bind(bed_.network(), kAddress);

  // 16 concurrent clients on 2 workers. Thread-per-request serving would
  // need ceil(16/2) * 100ms = 800ms; the state machine parks all 16
  // stalls on the timer wheel concurrently.
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i)
    clients.emplace_back([&] {
      cas::CasClient client(&bed_.network(),
                            cas::CasClientConfig{.address = kAddress, .retry = {}});
      if (client.get_instance("s", signed_.sigstruct).ok()) ++ok;
    });
  for (auto& t : clients) t.join();
  const auto wall = Clock::now() - start;

  EXPECT_EQ(ok.load(), 16);
  // Thread-per-request would take >= 800ms; leave headroom for noisy CI.
  EXPECT_LT(wall, 600ms) << "stalls appear to serialize on workers";
  EXPECT_GE(server.metrics().max_in_flight.load(), 8u);
  EXPECT_EQ(server.metrics().requests_in_flight.load(), 0u);
  EXPECT_EQ(server.metrics().get_instance.requests.load(), 16u);
  EXPECT_EQ(server.metrics().get_instance.latency.snapshot().count, 16u);
  // Latency includes the deferred stall.
  EXPECT_GE(server.metrics().get_instance.latency.snapshot().p50,
            std::chrono::milliseconds(100));
}

TEST_F(AsyncServingTest, OpenLoopSustainsInFlightBeyondThreadCounts) {
  install("s");
  server::CasServerConfig cfg;
  cfg.workers = 2;
  cfg.backend_io = 40ms;
  server::CasServer server(&bed_.cas(), cfg);
  server.premint("s", signed_.sigstruct, 128);
  server.bind(bed_.network(), kAddress);

  workload::LoadGenConfig load;
  load.mode = workload::LoadMode::kOpen;
  load.clients = 2;           // two issuing threads...
  load.logical_clients = 32;  // ...multiplex 32 arrival streams
  load.requests_per_client = 3;
  load.mean_interarrival = 10ms;
  load.address = kAddress;
  load.sessions = {"s"};
  load.base_seed = 7;
  const auto result =
      workload::run_instance_load(bed_.network(), signed_.sigstruct, load);

  EXPECT_EQ(result.failed, 0u) << result.first_error;
  EXPECT_EQ(result.ok, 96u);
  const std::set<std::string> unique(result.tokens.begin(),
                                     result.tokens.end());
  EXPECT_EQ(unique.size(), 96u);  // one-time tokens, still unique
  // In-flight far beyond both issuing threads (2) and workers (2).
  EXPECT_GE(result.max_in_flight, 8u) << "open loop failed to overlap";
  EXPECT_GE(server.metrics().max_in_flight.load(), 8u);
  EXPECT_EQ(server.metrics().requests_in_flight.load(), 0u);
}

TEST_F(AsyncServingTest, UnbindCompletesParkedRequests) {
  install("s");
  server::CasServerConfig cfg;
  cfg.workers = 1;
  cfg.backend_io = 50ms;
  server::CasServer server(&bed_.cas(), cfg);
  server.bind(bed_.network(), kAddress);

  cas::CasClient client(&bed_.network(),
                        cas::CasClientConfig{.address = kAddress, .retry = {}});
  std::mutex mutex;
  std::condition_variable cv;
  bool responded = false;
  bool was_ok = false;
  client.get_instance_async("s", signed_.sigstruct,
                            [&](const cas::InstanceResult& got) {
                              std::lock_guard lock(mutex);
                              responded = true;
                              was_ok = got.ok();
                              cv.notify_all();
                            });
  server.unbind();  // drains the stall parked on the timer wheel
  // unbind guarantees the server side is quiescent; the client callback
  // trails it by a hair — wait for the delivery.
  std::unique_lock lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return responded; }));
  EXPECT_TRUE(was_ok);
}

}  // namespace
}  // namespace sinclave

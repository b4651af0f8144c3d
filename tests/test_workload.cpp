// Tests for the workload models and the testbed fixture backing the
// macro-benchmarks (Fig. 9): both modes complete, starts are counted, and
// the SinClave run consumes exactly one token per enclave start.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <vector>

#include "crypto/sha256.h"
#include "workload/load_gen.h"
#include "workload/workloads.h"

namespace sinclave::workload {
namespace {

WorkloadSpec tiny_spec(int processes) {
  WorkloadSpec s;
  s.name = "tiny-" + std::to_string(processes);
  s.code_bytes = sgx::kPageSize;
  s.heap_bytes = sgx::kPageSize;
  s.process_count = processes;
  s.file_count = 2;
  s.file_bytes = 1024;
  s.compute_units = 4;
  return s;
}

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : bed_(TestbedConfig{.seed = 33, .rsa_bits = 1024}) {}
  Testbed bed_;
};

TEST_F(WorkloadTest, BaselineRunCompletes) {
  const auto result = run_workload(bed_, tiny_spec(1),
                                   runtime::RuntimeMode::kBaseline);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.enclaves_started, 1);
  EXPECT_GT(result.total.count(), 0);
}

TEST_F(WorkloadTest, SinclaveRunCompletes) {
  const auto result = run_workload(bed_, tiny_spec(1),
                                   runtime::RuntimeMode::kSinclave);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.enclaves_started, 1);
}

TEST_F(WorkloadTest, MultiProcessCountsStarts) {
  const auto result = run_workload(bed_, tiny_spec(4),
                                   runtime::RuntimeMode::kSinclave);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.enclaves_started, 4);
  EXPECT_EQ(bed_.cas().tokens_used(), 4u);
  EXPECT_EQ(bed_.cas().tokens_outstanding(), 0u);
}

TEST_F(WorkloadTest, BaselineConsumesNoTokens) {
  const auto result = run_workload(bed_, tiny_spec(3),
                                   runtime::RuntimeMode::kBaseline);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(bed_.cas().tokens_used(), 0u);
}

TEST_F(WorkloadTest, RepeatedRunsWork) {
  // The same bed can run a workload repeatedly (benchmark repetitions).
  const WorkloadSpec spec = tiny_spec(2);
  for (int i = 0; i < 3; ++i) {
    const auto b = run_workload(bed_, spec, runtime::RuntimeMode::kBaseline);
    const auto s = run_workload(bed_, spec, runtime::RuntimeMode::kSinclave);
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_TRUE(s.ok) << s.error;
  }
}

TEST_F(WorkloadTest, ShippedSpecsAreWellFormed) {
  for (const auto& spec :
       {python_workload(), openvino_workload(), pytorch_workload()}) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_GE(spec.process_count, 1);
    EXPECT_EQ(spec.heap_bytes % sgx::kPageSize, 0u) << spec.name;
    EXPECT_GE(spec.compute_units,
              static_cast<std::uint64_t>(spec.process_count))
        << spec.name;
  }
  // The paper's overhead ordering is driven by starts per run.
  EXPECT_LT(python_workload().process_count,
            openvino_workload().process_count);
  EXPECT_LT(openvino_workload().process_count,
            pytorch_workload().process_count);
}

TEST(LoadGenSchedule, IsAPureFunctionOfTheConfig) {
  LoadGenConfig cfg;
  cfg.mode = LoadMode::kOpen;
  cfg.logical_clients = 4;
  cfg.requests_per_client = 64;
  cfg.sessions = {"a", "b", "c"};
  cfg.base_seed = 42;
  cfg.mean_interarrival = std::chrono::microseconds(500);

  const auto one = make_schedule(cfg);
  const auto two = make_schedule(cfg);
  ASSERT_EQ(one.size(), 4u);
  ASSERT_EQ(two.size(), 4u);
  for (std::size_t c = 0; c < one.size(); ++c) {
    ASSERT_EQ(one[c].size(), 64u);
    for (std::size_t i = 0; i < one[c].size(); ++i) {
      EXPECT_EQ(one[c][i].session_index, two[c][i].session_index);
      EXPECT_EQ(one[c][i].at, two[c][i].at);
      if (i > 0) {
        EXPECT_GE(one[c][i].at, one[c][i - 1].at);  // time moves on
      }
    }
  }
}

TEST(LoadGenSchedule, SeedAndClientIndexDecorrelateStreams) {
  LoadGenConfig cfg;
  cfg.mode = LoadMode::kOpen;
  cfg.logical_clients = 2;
  cfg.requests_per_client = 64;
  cfg.sessions = {"a", "b", "c", "d"};
  cfg.base_seed = 1;

  const auto base = make_schedule(cfg);
  cfg.base_seed = 2;
  const auto reseeded = make_schedule(cfg);

  const auto differs = [](const std::vector<ScheduledRequest>& x,
                          const std::vector<ScheduledRequest>& y) {
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].session_index != y[i].session_index || x[i].at != y[i].at)
        return true;
    return false;
  };
  // A different base seed reshuffles every client; two clients under the
  // same seed do not mirror each other.
  EXPECT_TRUE(differs(base[0], reseeded[0]));
  EXPECT_TRUE(differs(base[0], base[1]));
}

TEST(LoadGenSchedule, ZipfianScheduleIsDeterministic) {
  LoadGenConfig cfg;
  cfg.mode = LoadMode::kOpen;
  cfg.logical_clients = 4;
  cfg.requests_per_client = 64;
  cfg.sessions = {"hot", "warm", "cool", "cold"};
  cfg.session_dist = SessionDist::kZipfian;
  cfg.zipf_theta = 0.99;
  cfg.base_seed = 7;

  const auto one = make_schedule(cfg);
  const auto two = make_schedule(cfg);
  ASSERT_EQ(one.size(), two.size());
  for (std::size_t c = 0; c < one.size(); ++c)
    for (std::size_t i = 0; i < one[c].size(); ++i) {
      EXPECT_EQ(one[c][i].session_index, two[c][i].session_index);
      EXPECT_EQ(one[c][i].at, two[c][i].at);
    }
}

TEST(LoadGenSchedule, ZipfianSkewsTowardLowRanks) {
  LoadGenConfig cfg;
  cfg.mode = LoadMode::kClosed;
  cfg.clients = 16;
  cfg.requests_per_client = 200;
  cfg.sessions = {"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"};
  cfg.session_dist = SessionDist::kZipfian;
  cfg.zipf_theta = 1.2;
  cfg.base_seed = 11;

  std::array<std::size_t, 8> counts{};
  std::size_t total = 0;
  for (const auto& client : make_schedule(cfg))
    for (const auto& r : client) {
      ASSERT_LT(r.session_index, counts.size());
      ++counts[r.session_index];
      ++total;
    }
  // Rank 0 is the hot session: clearly above the uniform share and far
  // above the coldest rank (with theta=1.2 over 8 ranks its expected
  // share is ~42%).
  EXPECT_GT(counts[0], total / 8 * 2);
  EXPECT_GT(counts[0], counts[7] * 4);
  // Monotone-ish decay head to tail (allow sampling noise in the middle).
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[1], counts[6]);
}

TEST(LoadGenSchedule, UniformAndZipfianDrawDifferentSessions) {
  LoadGenConfig cfg;
  cfg.mode = LoadMode::kClosed;
  cfg.clients = 2;
  cfg.requests_per_client = 64;
  cfg.sessions = {"a", "b", "c", "d"};
  cfg.base_seed = 3;
  const auto uniform = make_schedule(cfg);
  cfg.session_dist = SessionDist::kZipfian;
  const auto zipf = make_schedule(cfg);
  bool differs = false;
  for (std::size_t c = 0; c < uniform.size() && !differs; ++c)
    for (std::size_t i = 0; i < uniform[c].size(); ++i)
      if (uniform[c][i].session_index != zipf[c][i].session_index) {
        differs = true;
        break;
      }
  EXPECT_TRUE(differs);
}

// perfbench's `retrieve` builds its plan from this schedule
// (perfbench/src/plan.cpp: 64 sessions, zipfian theta 0.99, two closed-
// loop clients of 50 warm-up + 5,000 requests, the run's seed as base
// seed), so the session indices it draws are pinned by digest: a change
// to them changes that benchmark's workload.
TEST(LoadGenSchedule, PerfbenchRetrieveScheduleIsPinned) {
  LoadGenConfig cfg;
  cfg.mode = LoadMode::kClosed;
  cfg.clients = 2;
  cfg.requests_per_client = 5050;
  cfg.sessions.assign(64, "s");  // the draws see only the count
  cfg.session_dist = SessionDist::kZipfian;
  cfg.zipf_theta = 0.99;
  cfg.base_seed = 3201;
  Bytes indices;
  for (const auto& client : make_schedule(cfg))
    for (const ScheduledRequest& r : client)
      for (int b = 0; b < 8; ++b)
        indices.push_back(
            static_cast<std::uint8_t>(r.session_index >> (8 * b)));
  ASSERT_EQ(indices.size(), 2u * 5050u * 8u);
  EXPECT_EQ(crypto::sha256(indices).hex(),
            "12569bf039df501e41833808d7127f5e8ad12561d81560642d89bc288ba82e35");
}

TEST(LoadGenSchedule, ClosedLoopArrivesImmediatelyButStaysSeeded) {
  LoadGenConfig cfg;
  cfg.mode = LoadMode::kClosed;
  cfg.clients = 3;
  cfg.requests_per_client = 16;
  cfg.sessions = {"a", "b"};
  cfg.base_seed = 9;
  const auto schedule = make_schedule(cfg);
  ASSERT_EQ(schedule.size(), 3u);
  bool used_b = false;
  for (const auto& client : schedule)
    for (const auto& r : client) {
      EXPECT_EQ(r.at.count(), 0);  // closed loop: back-to-back
      used_b |= r.session_index == 1;
    }
  EXPECT_TRUE(used_b);  // sessions really are drawn from the RNG
  EXPECT_EQ(make_schedule(cfg)[2][7].session_index,
            schedule[2][7].session_index);
}

TEST_F(WorkloadTest, TestbedChildRngsAreIndependent) {
  auto a = bed_.child_rng("x");
  auto b = bed_.child_rng("x");
  EXPECT_NE(a.generate(16), b.generate(16));  // stateful parent entropy
}

TEST_F(WorkloadTest, TestbedsAreReproduciblePerSeed) {
  Testbed one(TestbedConfig{.seed = 77, .rsa_bits = 1024});
  Testbed two(TestbedConfig{.seed = 77, .rsa_bits = 1024});
  EXPECT_EQ(one.user_signer().public_key(), two.user_signer().public_key());
  EXPECT_EQ(one.cas().verifier_id(), two.cas().verifier_id());
}

}  // namespace
}  // namespace sinclave::workload

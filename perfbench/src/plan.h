// The generated inputs of one round — a pure function of (workload,
// workload seed, sizes). Nothing here depends on the fixture: keys,
// policies and images come from kFixtureSeed, so the seed moves only what
// the clients ask for (session choice, channel and volume DRBG nonces, the
// credentials sampled for verification).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace perfbench {

/// Sessions of the retrieve workload (zipfian choice over these).
inline constexpr std::size_t kRetrieveSessions = 64;
inline constexpr double kRetrieveZipfTheta = 0.99;
/// Credentials per retrieve round whose SigStruct is checked in full.
inline constexpr std::size_t kRetrieveSampled = 32;

struct Plan {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t warmup_per_thread = 0;
  std::size_t ops_per_thread = 0;

  std::size_t clients() const { return ops.size(); }
  /// Per client thread, warm-up ops first: retrieve — session index;
  /// start-cluster — spend nonce; start — unused (zero).
  std::vector<std::vector<std::uint64_t>> ops;
  /// Per client thread: seed of that thread's own DRBG streams (start:
  /// the runtime's channel keys and volume nonces).
  std::vector<std::uint64_t> thread_seeds;
  /// retrieve: measured (thread, op index) positions whose returned
  /// credential is verified against the predicted measurement.
  std::vector<std::pair<std::size_t, std::size_t>> sampled;

  /// Canonical byte encoding (the self-test compares these).
  sinclave::Bytes serialize() const;
};

std::vector<std::string> retrieve_session_names();

/// Throws std::invalid_argument for an unknown workload.
Plan make_plan(std::string_view workload, std::uint64_t seed,
               std::size_t clients, std::size_t warmup_per_thread,
               std::size_t ops_per_thread);

}  // namespace perfbench

// The three workloads. Each run_*_round builds a fresh bed from the fixed
// fixture seed, warms it up with the plan's warm-up ops, runs the measured
// window over the plan's ops, and checks the outcome against the system's
// own ledgers. `setup_started` is when this round's set-up began (process
// start for the first round); the round's setup_s ends at its first
// measured op.
#pragma once

#include <cstddef>
#include <string_view>

#include "common.h"
#include "plan.h"

namespace perfbench {

using RoundFn = RoundResult (*)(const Plan& plan, bool trace,
                                Clock::time_point setup_started);

RoundResult run_start_round(const Plan& plan, bool trace,
                            Clock::time_point setup_started);
RoundResult run_retrieve_round(const Plan& plan, bool trace,
                               Clock::time_point setup_started);
RoundResult run_start_cluster_round(const Plan& plan, bool trace,
                                    Clock::time_point setup_started);

struct Workload {
  const char* name;
  /// Closed-loop client threads.
  std::size_t clients;
  /// Measured ops per client thread per round.
  std::size_t ops_per_thread;
  std::size_t warmup_per_thread;
  /// Length of one round (set-up + window) on the reference host; the
  /// run's round count is --seconds divided by this.
  double nominal_round_s;
  /// RSA modulus sizes: signer and CAS identity, and quoting enclaves.
  std::size_t signer_bits;
  std::size_t qe_bits;
  /// Client threads rotate over the round's CPUs (see set_run_cpus). On
  /// `start-cluster` only: its one client does nearly all the work. Off on
  /// `start` and `retrieve`, whose two clients and two workers already
  /// spread over the CPUs; forcing a client onto a CPU a worker holds
  /// doubled `start`'s p99.
  bool rotate_clients;
  RoundFn run;
};

/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

}  // namespace perfbench

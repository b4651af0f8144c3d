// Seed discipline of the benchmark's inputs: one workload seed gives a
// byte-identical plan, another seed gives a different one, and the plan
// has the shape the workloads index into. Exits nonzero on the first
// violated check.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common.h"
#include "plan.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

}  // namespace

int main() {
  for (const char* workload : {"start", "retrieve", "start-cluster"}) {
    const std::string w = workload;
    const Plan a = make_plan(w, 42, 2, 4, 500);
    const Plan b = make_plan(w, 42, 2, 4, 500);
    const Plan c = make_plan(w, 43, 2, 4, 500);
    check(a.serialize() == b.serialize(), w + ": same seed, same bytes");
    check(a.serialize() != c.serialize(), w + ": another seed, other bytes");
    check(a.clients() == 2, w + ": one op list per client");
    for (const auto& ops : a.ops)
      check(ops.size() == 504, w + ": warm-up plus measured ops");
  }

  const Plan r = make_plan("retrieve", 7, 2, 50, 4000);
  check(r.sampled.size() == kRetrieveSampled, "retrieve: sample size");
  std::size_t hottest = 0, coldest = 0;
  for (const auto& ops : r.ops) {
    for (const std::uint64_t s : ops) {
      check(s < kRetrieveSessions, "retrieve: session index in range");
      hottest += s == 0;
      coldest += s == kRetrieveSessions - 1;
    }
  }
  check(hottest > 10 * coldest, "retrieve: zipfian skew toward session 0");

  bool threw = false;
  try {
    make_plan("no-such-workload", 1, 1, 1, 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "unknown workload is refused");

  std::printf("%s\n", failures == 0 ? "plan self-test: PASS"
                                    : "plan self-test: FAIL");
  return failures == 0 ? 0 : 1;
}

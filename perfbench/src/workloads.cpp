#include "workloads.h"

namespace perfbench {

namespace {

// Round lengths are measured on a 4-core x86-64 host (GCC 12, Release).
// `retrieve` rounds are mostly pool fill: an RSA-1024 signature per
// credential costs several times the retrieval that takes it.
// `start-cluster` runs one client: ClusterBed serializes construction and
// quoting on its single simulated platform, so a second client mostly
// queued on that harness lock, and its latency swung with how the two
// clients' phases happened to interleave. Its rounds are short because
// every proposal re-seals the replica's whole state, which grows with each
// spend: a short round keeps that state, and the memory each op touches,
// small.
constexpr Workload kWorkloads[] = {
    {"start", 2, 63, 3, 3.4, 3072, 1024, false, run_start_round},
    {"retrieve", 2, 5000, 50, 2.8, 1024, 1024, false, run_retrieve_round},
    {"start-cluster", 1, 125, 3, 3.2, 3072, 3072, true,
     run_start_cluster_round},
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace perfbench

#ifndef TCDB_PERFBENCH_WORKLOADS_H_
#define TCDB_PERFBENCH_WORKLOADS_H_

#include "bench_common.h"
#include "checks.h"
#include "util/status.h"

// The four workloads (see README.md for why each exists). Each runs its
// set-up, a timed phase of options.seconds, then checks every recorded
// output against the benchmark's own references, filling `report` with
// the end-to-end metrics and, when options.trace is set, the per-layer
// ones. A non-OK status means the run could not proceed at all; wrong
// answers are reported through report->correct instead. When `capture`
// is non-null the workload also stores its records there for the checker
// self-test.
namespace perfbench {

tcdb::Status RunClosure(const RunOptions& options, RunReport* report,
                        SelfTestInputs* capture);

// `adversarial` selects serve_adversarial (batched fallback-bound
// traffic with the observation battery) instead of serve.
tcdb::Status RunServe(const RunOptions& options, bool adversarial,
                      RunReport* report, SelfTestInputs* capture);

tcdb::Status RunUpdate(const RunOptions& options, RunReport* report,
                       SelfTestInputs* capture);

// Derives an independent per-purpose seed from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // TCDB_PERFBENCH_WORKLOADS_H_

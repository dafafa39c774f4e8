// The three workloads. Each runs in its own process, prints its result
// line on success and returns the process exit code.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace perfbench {

// One machine on one thread, kasm source to exit status, of the
// compartmentalised key-value guest.
int RunCompartments(const Args& args);

// Closed batches of golden-image clones through Fleet::Run with
// checkpointing on: demand paging, self-modifying code, generated guests.
int RunFleetPaged(const Args& args);

// An open-loop generator driving the ringsimd daemon over its socket.
int RunServeMixed(const Args& args);

// Exit code for a failed reference check (distinct from a determinism
// break, which exits with 3).
inline constexpr int kReferenceCheckFailed = 4;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

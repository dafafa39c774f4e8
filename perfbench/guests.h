// Guest programs the benchmark generates from its seed, as kasm source
// with a `;;` manifest, plus the host-side model the compartment guest's
// output is checked against.
#ifndef PERFBENCH_GUESTS_H_
#define PERFBENCH_GUESTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/trap_cause.h"

namespace perfbench {

// Request operations of the compartment guest. A request word packs
// op[48..50] count[32..47] key[16..31] value[0..15].
enum CompartmentOp : uint64_t {
  kGet = 0,     // reply = sum of count values from key on
  kPut = 1,     // reply as kGet, then each value += value
  kEncode = 2,  // kPut after the ring-5 codec rewrote the value (upward call)
  // Hostile requests; each must end in the named protection trap.
  kReadStore = 5,    // ring-4 client reads the ring-1 table: read_violation
  kCallStore = 6,    // ring-4 client calls the store's ring-3 gate: execute_violation
  kForgeReply = 7,   // reply pointer aimed at the ring-1 table: write_violation
};

// Number of requests of each kind in one script and the spacing of
// their counts. Seeds change keys, values and order, never these, so
// every seed executes the same number of gate crossings.
struct ScriptShape {
  int gets = 12;
  int puts = 14;
  int encodes = 6;
  uint64_t count_base = 256;
  uint64_t count_step = 32;
};

struct Script {
  std::vector<uint64_t> requests;
  uint64_t hostile_op = 0;  // 0, or the op of a final hostile request
};

Script MakeScript(uint64_t seed, uint64_t index, const ScriptShape& shape,
                  uint64_t hostile_op);

// The compartmentalised key-value guest: a ring-4 client sends each
// request through a ring-3 untrusted parser to a ring-1 store over gates
// (arguments by pointer register and indirect words), with a ring-5
// codec sandbox reached by upward call. `flat` puts the parser and the
// store in ring 4 (same-ring calls, identical object code), for the
// paper's claim that a downward gate crossing costs what a same-ring
// call costs.
std::string CompartmentSource(const Script& script, bool flat = false);

// The outcome the host model predicts: a benign script exits with the
// checksum of its replies; a hostile one is killed with `cause`, its
// replies so far summing to `checksum`.
struct ScriptExpect {
  uint64_t checksum = 0;
  rings::TrapCause cause = rings::TrapCause::kNone;
};
ScriptExpect ModelScript(const Script& script);

// Demand-paged store loop: `iterations` read-modify-writes at a seeded
// odd multiple of 16 words apart over a 64 Ki-word demand-zero segment
// (every 4096 iterations touch each multiple of 16 once).
std::string PagerSource(uint64_t seed, int iterations);

// Self-modifying code: each iteration stores a different instruction
// word into the running procedure segment and then executes it.
std::string SmcSource(uint64_t seed, int iterations);

}  // namespace perfbench

#endif  // PERFBENCH_GUESTS_H_

// The differential oracle: run one guest program under every execution
// configuration the simulator promises is bit-identical — the reference
// interpreter, the block engine, the fleet at several thread counts, and
// a snapshot/restore cut mid-run — and compare the runs field by field
// (cycles, instructions, architectural counters, trap/ring-switch
// sequence, process outcomes, tty output, and the FNV-1a fingerprint that
// folds them all together).
// Any disagreement is a Divergence naming the leg and the first
// differing field.
#ifndef SRC_FUZZ_DIFFERENTIAL_H_
#define SRC_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sys/machine.h"
#include "src/sys/manifest.h"

namespace rings {

struct FuzzOptions {
  // Cycle budget every leg runs under. Generated guests terminate well
  // within this; a guest that does not is reported as an error, not a
  // divergence.
  uint64_t max_cycles = 2'000'000;
  // Fleet legs to run (one single-machine fleet per thread count). The
  // fleet must agree with the standalone reference at every count.
  std::vector<int> fleet_threads = {1, 4, 8};
  bool check_fleet = true;
  // Spawn the fleet legs' machines the way the serving daemon does: by
  // copy-on-write clone from a sealed golden image rather than a cold
  // build, so every fuzz trial also pins clone-vs-cold bit identity.
  bool fleet_clone = true;
  // Snapshot leg: run the block-engine machine to roughly half the
  // reference run, snapshot, restore into a bare machine, finish there.
  bool check_snapshot = true;
  // Deliberately sabotage the superblock engine on every non-reference
  // leg (MachineConfig::block_call_ablation) so tests can prove the
  // oracle and shrinker actually catch a broken engine.
  bool ablate_block_call = false;
  // Same, for block-to-block chaining (MachineConfig::chain_ablation):
  // one spurious cycle per followed link on every chaining leg.
  bool ablate_chain = false;
};

// What one leg's finished run looks like to the comparator.
struct RunSignature {
  uint64_t fingerprint = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t counters_digest = 0;
  std::vector<std::string> traps;  // trap + ring-switch events, rendered
  std::vector<std::string> processes;
  std::string tty;
};

struct Divergence {
  bool found = false;
  std::string leg;     // "block", "fleet-4", "snapshot", ...
  std::string detail;  // first differing field, ref vs leg values

  std::string ToString() const;
};

struct CheckResult {
  // False when the guest could not be checked at all (assembly or
  // manifest error, failed instantiation, reference run not terminating);
  // `error` says why. Divergence is only meaningful when ok.
  bool ok = false;
  std::string error;
  Divergence divergence;
  RunSignature reference;  // the reference interpreter's signature, for reporting
};

// Runs the full differential check on one guest source file (manifest
// lines included).
CheckResult CheckGuest(const std::string& source, const FuzzOptions& options = FuzzOptions{});

}  // namespace rings

#endif  // SRC_FUZZ_DIFFERENTIAL_H_

// Quantum-boundary regression: events that land BETWEEN two instructions
// of a hot straight-line run — the timer running out, and a fault-injector
// trap — must produce identical architectural outcomes on the reference
// interpreter and the block engine. This is the sharpest edge of the block engine's contract: the
// per-instruction boundary work (timer decrement, fault-injection hooks,
// trap capture state) runs before every op of a block, and a trap raised
// there must deliver exactly as it would between two Step() calls, with
// the rest of the block abandoned.
//
// The quantum is swept over values coprime to the hot loop's length so the
// runout lands at many different offsets inside a cached block, not just
// at block heads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/sys/machine.h"

namespace rings {
namespace {

struct Fingerprint {
  uint64_t cycles = 0;
  RegisterFile regs{};
  Counters counters{};
  std::vector<std::string> traps;  // kTrap / kRingSwitch events, in order
  std::vector<std::string> processes;
};

void ExpectArchitecturalCountersEqual(const Counters& off, const Counters& on) {
  EXPECT_EQ(off.instructions, on.instructions);
  EXPECT_EQ(off.memory_reads, on.memory_reads);
  EXPECT_EQ(off.memory_writes, on.memory_writes);
  EXPECT_EQ(off.sdw_fetches, on.sdw_fetches);
  EXPECT_EQ(off.sdw_cache_hits, on.sdw_cache_hits);
  EXPECT_EQ(off.indirect_words, on.indirect_words);
  EXPECT_EQ(off.page_walks, on.page_walks);
  EXPECT_EQ(off.pages_supplied, on.pages_supplied);
  EXPECT_EQ(off.checks_fetch, on.checks_fetch);
  EXPECT_EQ(off.checks_read, on.checks_read);
  EXPECT_EQ(off.checks_write, on.checks_write);
  EXPECT_EQ(off.supervisor_steps, on.supervisor_steps);
  EXPECT_EQ(off.sdw_recoveries, on.sdw_recoveries);
  EXPECT_EQ(off.spurious_pages_ignored, on.spurious_pages_ignored);
  EXPECT_EQ(off.machine_faults, on.machine_faults);
  EXPECT_EQ(off.trap_storm_kills, on.trap_storm_kills);
  EXPECT_EQ(off.double_faults, on.double_faults);
  for (size_t i = 0; i < off.traps.size(); ++i) {
    EXPECT_EQ(off.traps[i], on.traps[i])
        << "trap count for " << TrapCauseName(static_cast<TrapCause>(i));
  }
}

void ExpectFingerprintsEqual(const Fingerprint& off, const Fingerprint& on) {
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(off.regs, on.regs);
  EXPECT_EQ(off.traps, on.traps);
  EXPECT_EQ(off.processes, on.processes);
  ExpectArchitecturalCountersEqual(off.counters, on.counters);
}

// The two engines (MachineConfig::fast_path).
inline constexpr bool kReference = false;
inline constexpr bool kBlockEngine = true;

// A hot straight-line run: 14 data-free or same-slot instructions between
// back edges, so the superblock engine chains one long block per lap and
// almost every timer runout lands in its interior.
constexpr char kHotSource[] = R"(
        .segment hot
start:  ldai  0
loop:   adai  1
        adai  1
        adai  1
        adai  1
        adai  1
        adai  1
        sta   slot,*
        lda   slot,*
        adai  1
        adai  1
        adai  1
        sta   slot,*
        lda   slot,*
        tra   loop
slot:   .its  4, counters, 0

        .segment counters
        .word 0
)";

Fingerprint RunHotLoop(bool fast_path, uint64_t quantum, uint64_t fault_seed,
                       uint32_t fault_rate_ppm) {
  MachineConfig config;
  config.quantum = quantum;
  config.fast_path = fast_path;
  if (fault_rate_ppm != 0) {
    config.fault = FaultConfig::Uniform(fault_seed, fault_rate_ppm);
  }
  Machine machine(config);
  EXPECT_TRUE(machine.ok());
  std::map<std::string, AccessControlList> acls;
  acls["hot"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counters"] = AccessControlList::Public(MakeDataSegment(4, 4));
  EXPECT_TRUE(machine.LoadProgramSource(kHotSource, acls));
  Process* p = machine.Login("hot");
  EXPECT_NE(p, nullptr);
  machine.supervisor().InitiateAll(p);
  EXPECT_TRUE(machine.Start(p, "hot", "start", kUserRing));
  machine.trace().set_enabled(true);

  // Several bounded slices: runouts, trap deliveries and re-dispatches
  // recur at shifting offsets into the hot block.
  for (int i = 0; i < 3; ++i) {
    machine.Run(40'000);
  }

  Fingerprint fp;
  fp.cycles = machine.cpu().cycles();
  fp.regs = machine.cpu().regs();
  fp.counters = machine.cpu().counters();
  for (const TraceEvent& e : machine.trace().events()) {
    if (e.kind == EventKind::kTrap || e.kind == EventKind::kRingSwitch) {
      fp.traps.push_back(e.ToString());
    }
  }
  for (const auto& process : machine.supervisor().processes()) {
    fp.processes.push_back(StrFormat(
        "pid=%lld state=%d cause=%s", static_cast<long long>(process->pid),
        static_cast<int>(process->state),
        std::string(TrapCauseName(process->kill_cause)).c_str()));
  }
  return fp;
}

// Timer runout mid-block. Quanta are chosen coprime to the loop's cycle
// footprint so successive runouts sweep across every intra-block offset.
TEST(QuantumBoundary, TimerRunoutLandsIdenticallyAcrossFastPaths) {
  for (const uint64_t quantum : {61u, 97u, 127u, 509u}) {
    SCOPED_TRACE(StrFormat("quantum=%llu", static_cast<unsigned long long>(quantum)));
    const Fingerprint slow = RunHotLoop(kReference, quantum, 0, 0);
    const Fingerprint block = RunHotLoop(kBlockEngine, quantum, 0, 0);
    // The scenario must actually exercise its edge: runouts happened, and
    // the block engine was executing the hot run when they did.
    EXPECT_GT(slow.counters.TrapCount(TrapCause::kTimerRunout), 0u);
    EXPECT_GT(block.counters.block_ops, 0u);
    EXPECT_GT(block.counters.block_hits, 0u);
    ExpectFingerprintsEqual(slow, block);
  }
}

// Fault-injector traps mid-block: the injector consumes its RNG stream at
// every instruction boundary, so a spurious missing-page trap (and the
// cache drops that precede it) lands between two ops of a hot block. Any
// divergence in boundary-work placement desynchronizes the stream and the
// fingerprints split immediately.
TEST(QuantumBoundary, InjectedTrapLandsIdenticallyAcrossFastPaths) {
  for (const uint64_t seed : {0x5EEDu, 0xFACEu}) {
    SCOPED_TRACE(StrFormat("seed=%llx", static_cast<unsigned long long>(seed)));
    const Fingerprint slow = RunHotLoop(kReference, 509, seed, 5'000);
    const Fingerprint block = RunHotLoop(kBlockEngine, 509, seed, 5'000);
    // The injector must actually have fired into the hot run: some trap
    // other than the scheduler's timer runout was delivered.
    uint64_t injected_traps = 0;
    for (size_t i = 0; i < slow.counters.traps.size(); ++i) {
      if (static_cast<TrapCause>(i) != TrapCause::kTimerRunout) {
        injected_traps += slow.counters.traps[i];
      }
    }
    EXPECT_GT(injected_traps, 0u);
    EXPECT_GT(block.counters.block_ops, 0u);
    ExpectFingerprintsEqual(slow, block);
  }
}

}  // namespace
}  // namespace rings

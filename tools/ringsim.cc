// ringsim — run a guest assembly program on the ring-protection machine
// from the command line.
//
//   ringsim [options] program.asm
//
// Options:
//   --list           print a disassembly listing of every segment
//   --trace          print ring switches and traps as they happen
//   --max-cycles=N   cycle budget (default 100M)
//   --fault-rate=N   enable deterministic fault injection: every site at
//                    N parts per million per opportunity
//   --fault-seed=N   fault-injection RNG seed (default 1); a (seed, rate)
//                    pair replays exactly
//   --no-fastpath    disable the host-side verdict/decoded-instruction
//                    caches (simulated cycles are identical either way)
//   --no-block-engine disable the superblock execution engine while
//                    keeping the caches (same guarantee: host-only)
//   --stats          print the processor's event counters after the run
//   --fleet=N        run N independent machines, each loaded with the
//                    same program, across a worker-thread pool; prints a
//                    per-machine status line and a fleet summary, and
//                    exits nonzero if any machine does. With
//                    --fault-rate, machine i is seeded fault-seed+i.
//   --threads=T      fleet worker threads (default 1); per-machine
//                    results are bit-identical for every T
//   --slice-cycles=N simulated cycles per fleet scheduling quantum
//   --cold-boot      (fleet) construct+load every machine from scratch
//                    instead of cloning a golden image (ablation; the
//                    per-machine results are bit-identical either way —
//                    --fault-rate implies it, since each machine needs
//                    its own injector stream)
//   --checkpoint-every=N  (fleet) checkpoint each machine every N quanta
//                    and restart failed machines from their last verified
//                    checkpoint (see --max-restarts)
//   --max-restarts=R (fleet) restart a failed machine from its checkpoint
//                    up to R times (default 0: failures retire)
//   --snapshot-out=F serialize the machine's complete architectural state
//                    to F after the run (combine with --max-cycles to
//                    capture a mid-program image)
//   --restore=F      restore a machine from image F (instead of loading a
//                    program) and run it to completion
//   --fuzz=N         differential fuzzing: generate N random guest
//                    programs (seeds S, S+1, ...) and check each under
//                    the slow path, fast path, superblock engine, fleet
//                    (1/4/8 threads), and a snapshot/restore cut; exits 1
//                    on the first divergence, writing a self-contained
//                    repro file
//   --fuzz-seed=S    first generator seed (default 1); a seed fully
//                    determines the program, so a seed is a repro
//   --shrink         (fuzz) minimize a diverging program before writing
//                    the repro (delete-ranges, then simplify-operands)
//   --fuzz-repro-out=F  (fuzz) repro file path (default fuzz_repro_<seed>.asm)
//   --fuzz-ablation  (fuzz) deliberately sabotage the superblock engine
//                    (one spurious cycle per in-block CALL) to prove the
//                    oracle catches a broken engine; exits 1 when caught
//   --fuzz-chain-ablation  (fuzz) same, for chaining: one spurious cycle
//                    per followed block link
//
// The program file carries its own manifest in `;;` directive lines
// (ordinary `;` comments to the assembler; see src/sys/manifest.h):
//
//   ;; acl <segment> <user|*> procedure <r1> <r2> [<r3>] [write]
//   ;; acl <segment> <user|*> data <write_top> <read_top>
//   ;; acl <segment> <user|*> rodata <read_top>
//   ;; segment <name> <words> paged [demand|populate]
//   ;; start <segment> <entry> <ring> [<user>]
//   ;; tty-input <text until end of line>
//
// Example (examples/asm/hello.asm):
//   ;; acl main * procedure 4 4
//   ;; start main start 4
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/fleet/golden_image.h"
#include "src/fuzz/differential.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/shrink.h"
#include "src/kasm/assembler.h"
#include "src/kasm/disassembler.h"
#include "src/snapshot/snapshot.h"
#include "src/sup/audit.h"
#include "src/sys/machine.h"
#include "src/sys/manifest.h"

namespace rings {
namespace {

// Everything a run needs from the program file: the raw source, the `;;`
// manifest, and the assembled segments. ok=false means the error was
// already reported.
struct LoadedSource {
  std::string source;
  Manifest manifest;
  AssembleResult assembled;
  bool ok = false;
};

LoadedSource LoadSource(const std::string& path) {
  LoadedSource loaded;
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "ringsim: cannot open %s\n", path.c_str());
    return loaded;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  loaded.source = buffer.str();

  loaded.manifest = ParseManifest(loaded.source);
  if (!loaded.manifest.ok()) {
    std::fprintf(stderr, "ringsim: manifest: %s\n", loaded.manifest.error.c_str());
    return loaded;
  }
  loaded.assembled = Assemble(loaded.source);
  if (!loaded.assembled.ok) {
    std::fprintf(stderr, "ringsim: %s: %s\n", path.c_str(),
                 loaded.assembled.error.ToString().c_str());
    return loaded;
  }
  loaded.ok = true;
  return loaded;
}

// Post-run reporting shared by program and restore modes: trace events,
// tty output, fault summary, counters, per-process status; returns the
// process-derived exit code (max exited code, 111 for any unfinished).
int ReportRun(const Machine& machine, const RunResult& result, bool trace, bool stats) {
  if (trace) {
    for (const TraceEvent& e : machine.trace().events()) {
      if (e.kind == EventKind::kRingSwitch || e.kind == EventKind::kTrap) {
        std::printf("%s\n", e.ToString().c_str());
      }
    }
  }
  if (!machine.TtyOutput().empty()) {
    std::printf("tty: %s\n", machine.TtyOutput().c_str());
  }
  if (machine.fault_injector() != nullptr) {
    std::printf("%s\n", machine.fault_injector()->Summary().c_str());
    if (trace) {
      for (const FaultEvent& e : machine.fault_injector()->events()) {
        std::printf("fault: %s\n", e.ToString().c_str());
      }
    }
  }
  if (stats) {
    std::printf("counters: %s\n", machine.cpu().counters().ToString().c_str());
  }
  std::printf("%s\n", result.ToString().c_str());
  for (const auto& p : machine.supervisor().processes()) {
    if (p->state == ProcessState::kExited) {
      std::printf("process %d ('%s'): exited with %lld\n", p->pid, p->user.c_str(),
                  static_cast<long long>(p->exit_code));
    } else {
      std::printf("process %d ('%s'): %s (%s at %u|%u)\n", p->pid, p->user.c_str(),
                  p->state == ProcessState::kKilled ? "KILLED" : "did not finish",
                  std::string(TrapCauseName(p->kill_cause)).c_str(), p->kill_pc.segno,
                  p->kill_pc.wordno);
    }
  }
  return MachineExitStatus(machine).code;
}

int Run(const std::string& path, bool list, bool trace, bool audit, bool fast_path,
        bool block_engine, bool stats, uint64_t max_cycles, const FaultConfig& fault,
        const std::string& snapshot_out) {
  const LoadedSource loaded = LoadSource(path);
  if (!loaded.ok) {
    return 2;
  }
  const Manifest& manifest = loaded.manifest;
  const AssembleResult& assembled = loaded.assembled;

  if (list) {
    for (const AssembledSegment& seg : assembled.program.segments) {
      std::printf("; segment %s (%zu words, %u gates)\n", seg.name.c_str(), seg.words.size(),
                  seg.gate_count);
      std::printf("%s\n", DisassembleSegment(seg.words, seg.gate_count).c_str());
    }
  }

  MachineConfig config;
  config.fault = fault;
  config.fast_path = fast_path;
  config.block_engine = block_engine;
  Machine machine(config);
  if (!machine.ok()) {
    std::fprintf(stderr, "ringsim: machine construction failed\n");
    return 2;
  }
  machine.trace().set_enabled(trace);
  std::string error;
  if (!InstantiateGuest(assembled.program, manifest, &machine, &error)) {
    std::fprintf(stderr, "ringsim: %s\n", error.c_str());
    return 2;
  }

  if (audit) {
    const auto findings =
        AuditProtectionState(&machine.memory(), machine.registry(), machine.supervisor());
    for (const AuditFinding& f : findings) {
      std::printf("audit: %s\n", f.ToString().c_str());
    }
    std::printf("audit: %zu finding(s), %s\n", findings.size(),
                AuditClean(findings) ? "clean" : "NOT CLEAN");
  }

  const RunResult result = machine.Run(max_cycles);

  if (!snapshot_out.empty()) {
    std::string snap_error;
    if (!SaveSnapshotFile(machine, snapshot_out, &snap_error, machine.fault_injector())) {
      std::fprintf(stderr, "ringsim: snapshot: %s\n", snap_error.c_str());
      return 2;
    }
    std::printf("snapshot: wrote %s\n", snapshot_out.c_str());
  }
  return ReportRun(machine, result, trace, stats);
}

// Restore mode: rebuild a machine from a snapshot image and run it to
// completion. The machine shape (memory size, cycle model, mode,
// quantum) comes from the image's meta section; a corrupted, truncated,
// or incompatible image is rejected with a structured error and exit 2.
int RunRestore(const std::string& restore_path, const std::string& snapshot_out, bool trace,
               bool fast_path, bool block_engine, bool stats, uint64_t max_cycles) {
  std::vector<uint8_t> image;
  std::string error;
  if (!ReadSnapshotFile(restore_path, &image, &error)) {
    std::fprintf(stderr, "ringsim: restore: %s\n", error.c_str());
    return 2;
  }
  SnapshotMeta meta;
  if (!PeekSnapshotMeta(image, &meta, &error)) {
    std::fprintf(stderr, "ringsim: restore: %s: %s\n", restore_path.c_str(), error.c_str());
    return 2;
  }
  MachineConfig engine;
  engine.fast_path = fast_path;
  engine.block_engine = block_engine;
  Machine machine(RestoreConfig(meta, engine));
  if (!machine.ok()) {
    std::fprintf(stderr, "ringsim: machine construction failed\n");
    return 2;
  }
  if (!RestoreSnapshot(image, &machine, &error)) {
    std::fprintf(stderr, "ringsim: restore: %s: %s\n", restore_path.c_str(), error.c_str());
    return 2;
  }
  std::printf("restored %s (cycles=%llu)\n", restore_path.c_str(),
              static_cast<unsigned long long>(machine.cpu().cycles()));
  const RunResult result = machine.Run(max_cycles);
  if (!snapshot_out.empty()) {
    std::string snap_error;
    if (!SaveSnapshotFile(machine, snapshot_out, &snap_error, machine.fault_injector())) {
      std::fprintf(stderr, "ringsim: snapshot: %s\n", snap_error.c_str());
      return 2;
    }
    std::printf("snapshot: wrote %s\n", snapshot_out.c_str());
  }
  return ReportRun(machine, result, trace, stats);
}

// Fleet mode: N machines, each loaded with the same program, scheduled
// across a worker-thread pool. Per-machine results (and the process exit
// status) are bit-identical at any --threads value; only the host
// throughput and per-thread utilization in the summary vary.
int RunFleet(const std::string& path, uint64_t fleet_size, int threads, uint64_t slice_cycles,
             uint64_t checkpoint_every, int max_restarts, bool cold_boot, bool fast_path,
             bool block_engine, bool stats, uint64_t max_cycles, uint64_t fault_seed,
             uint32_t fault_rate) {
  const LoadedSource loaded = LoadSource(path);
  if (!loaded.ok) {
    return 2;
  }

  // Golden-image spawning: pay assemble+boot+load once, then clone every
  // fleet member copy-on-write. Fault injection keeps the cold path —
  // each machine needs its own derived-seed injector stream, which a
  // clone of one golden would share.
  std::shared_ptr<const GoldenImage> golden;
  if (!cold_boot && fault_rate == 0) {
    // Host engine flags are part of the identity: a golden built with
    // the block engine off must not serve a run that wants it on.
    const uint64_t identity = ProgramIdentity(loaded.assembled.program) ^
                              ((fast_path ? 1u : 0u) | (block_engine ? 2u : 0u));
    golden = GoldenImageRegistry::Instance().Acquire(
        identity, [&loaded, fast_path, block_engine]() -> std::unique_ptr<Machine> {
          MachineConfig config;
          config.fast_path = fast_path;
          config.block_engine = block_engine;
          auto machine = std::make_unique<Machine>(config);
          std::string error;
          if (!machine->ok() ||
              !InstantiateGuest(loaded.assembled.program, loaded.manifest, machine.get(),
                                &error)) {
            return nullptr;
          }
          return machine;
        });
    if (golden == nullptr) {
      std::fprintf(stderr, "ringsim: fleet: golden image construction failed\n");
      return 2;
    }
  }

  FleetConfig fleet_config;
  fleet_config.threads = threads;
  if (slice_cycles > 0) {
    fleet_config.slice_cycles = slice_cycles;
  }
  fleet_config.checkpoint_every_quanta = checkpoint_every;
  fleet_config.max_restarts = max_restarts;
  Fleet fleet(fleet_config);
  for (uint64_t i = 0; i < fleet_size; ++i) {
    // The factory runs on a worker thread; `loaded` and `golden` outlive
    // fleet.Run(), which blocks until every machine retires.
    const auto factory = [&loaded, &golden, fast_path, block_engine, fault_seed, fault_rate,
                          i]() -> std::unique_ptr<Machine> {
      if (golden != nullptr) {
        return golden->Spawn();
      }
      MachineConfig config;
      config.fast_path = fast_path;
      config.block_engine = block_engine;
      if (fault_rate > 0) {
        // Derived seed: every machine gets its own reproducible stream.
        config.fault = FaultConfig::Uniform(fault_seed + i, fault_rate);
      }
      auto machine = std::make_unique<Machine>(config);
      std::string error;
      if (!machine->ok() ||
          !InstantiateGuest(loaded.assembled.program, loaded.manifest, machine.get(), &error)) {
        return nullptr;
      }
      return machine;
    };
    fleet.Add(StrFormat("machine-%llu", static_cast<unsigned long long>(i)), factory,
              max_cycles);
  }

  const FleetStats fleet_stats = fleet.Run();
  for (const MachineResult& result : fleet.results()) {
    std::printf("%s\n", result.ToString().c_str());
    for (const std::string& line : result.process_status) {
      std::printf("  %s\n", line.c_str());
    }
    if (!result.tty.empty()) {
      std::printf("  tty: %s\n", result.tty.c_str());
    }
  }
  if (stats) {
    std::printf("aggregate counters: %s\n", fleet_stats.aggregate.ToString().c_str());
  }
  std::printf("%s\n", fleet_stats.ToString().c_str());
  return fleet.ExitCode();
}

// Differential fuzzing mode: N generated guests, each checked under
// every engine configuration; the first divergence stops the run, is
// optionally shrunk, and is written out as a self-contained repro file.
// Exit codes: 0 all trials agree, 1 divergence found, 2 harness error
// (a generated guest failed to assemble/instantiate — a generator bug).
int RunFuzz(uint64_t trials, uint64_t first_seed, bool shrink, std::string repro_out,
            bool ablation, bool chain_ablation) {
  FuzzOptions options;
  options.ablate_block_call = ablation;
  options.ablate_chain = chain_ablation;
  for (uint64_t i = 0; i < trials; ++i) {
    const uint64_t seed = first_seed + i;
    const GeneratedGuest guest = GenerateGuest(seed);
    const CheckResult check = CheckGuest(guest.source, options);
    if (!check.ok) {
      std::fprintf(stderr, "ringsim: fuzz: seed %llu: %s\n",
                   static_cast<unsigned long long>(seed), check.error.c_str());
      return 2;
    }
    if (!check.divergence.found) {
      continue;
    }
    std::printf("fuzz: seed %llu: DIVERGENCE: %s\n", static_cast<unsigned long long>(seed),
                check.divergence.ToString().c_str());
    std::string repro_source = guest.source;
    if (shrink) {
      const auto oracle = [&options](const std::string& candidate) {
        const CheckResult r = CheckGuest(candidate, options);
        return r.ok && r.divergence.found;
      };
      const ShrinkResult shrunk = Shrink(guest.source, oracle);
      repro_source = shrunk.source;
      std::printf("fuzz: shrunk to %d instruction(s) in %d oracle call(s)\n",
                  shrunk.instructions, shrunk.oracle_calls);
    }
    if (repro_out.empty()) {
      repro_out = StrFormat("fuzz_repro_%llu.asm", static_cast<unsigned long long>(seed));
    }
    const std::string repro =
        FormatRepro(seed, check.divergence.ToString(), repro_source);
    std::ofstream file(repro_out);
    file << repro;
    if (!file) {
      std::fprintf(stderr, "ringsim: fuzz: cannot write %s\n", repro_out.c_str());
      return 2;
    }
    file.close();
    std::printf("fuzz: repro written to %s\n", repro_out.c_str());
    std::printf("fuzz: %llu trial(s), 1 divergence(s)\n",
                static_cast<unsigned long long>(trials));
    return 1;
  }
  std::printf("fuzz: %llu trial(s), 0 divergence(s)\n",
              static_cast<unsigned long long>(trials));
  return 0;
}

// Strict decimal parse: the whole string must be digits. strtoul alone
// would turn a typo'd value into 0 and silently disable the feature.
bool ParseU64(const char* s, uint64_t* out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace rings

int main(int argc, char** argv) {
  bool list = false;
  bool trace = false;
  bool audit = false;
  bool fast_path = true;
  bool block_engine = true;
  bool stats = false;
  uint64_t max_cycles = 100'000'000;
  uint64_t fault_seed = 1;
  uint32_t fault_rate = 0;
  uint64_t fleet_size = 0;
  uint64_t threads = 1;
  uint64_t slice_cycles = 0;
  uint64_t checkpoint_every = 0;
  uint64_t max_restarts = 0;
  bool cold_boot = false;
  bool saw_fleet_only_flag = false;
  std::string fleet_only_flag;
  uint64_t fuzz_trials = 0;
  uint64_t fuzz_seed = 1;
  bool fuzz_shrink = false;
  bool fuzz_ablation = false;
  bool fuzz_chain_ablation = false;
  std::string fuzz_repro_out;
  bool saw_fuzz_only_flag = false;
  std::string fuzz_only_flag;
  std::string path;
  std::string snapshot_out;
  std::string restore_path;
  constexpr char kUsage[] =
      "usage: ringsim [--list] [--trace] [--audit] [--stats] [--no-fastpath]\n"
      "               [--no-block-engine] [--max-cycles=N] [--fault-rate=PPM]\n"
      "               [--fault-seed=N] [--snapshot-out=FILE]\n"
      "               [--fleet=N [--threads=T] [--slice-cycles=N]\n"
      "                [--checkpoint-every=N] [--max-restarts=R] [--cold-boot]]\n"
      "               program.asm\n"
      "       ringsim --restore=FILE [--trace] [--stats] [--max-cycles=N]\n"
      "               [--no-fastpath] [--no-block-engine] [--snapshot-out=FILE]\n"
      "       ringsim --fuzz=N [--fuzz-seed=S] [--shrink] [--fuzz-repro-out=FILE]\n"
      "               [--fuzz-ablation] [--fuzz-chain-ablation]\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--no-fastpath") {
      fast_path = false;
    } else if (arg == "--no-block-engine") {
      block_engine = false;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg.rfind("--max-cycles=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 13, &max_cycles)) {
        std::fprintf(stderr, "ringsim: %s: not a number\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 13, &fault_seed)) {
        std::fprintf(stderr, "ringsim: %s: not a number\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--fault-rate=", 0) == 0) {
      uint64_t ppm = 0;
      if (!rings::ParseU64(arg.c_str() + 13, &ppm) || ppm > 1'000'000) {
        std::fprintf(stderr, "ringsim: %s: expected 0..1000000 ppm\n", arg.c_str());
        return 2;
      }
      fault_rate = static_cast<uint32_t>(ppm);
    } else if (arg.rfind("--fleet=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 8, &fleet_size) || fleet_size == 0) {
        std::fprintf(stderr, "ringsim: %s: expected a machine count >= 1\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 10, &threads) || threads == 0 || threads > 1024) {
        std::fprintf(stderr, "ringsim: %s: expected a thread count in 1..1024\n", arg.c_str());
        return 2;
      }
      saw_fleet_only_flag = true;
      fleet_only_flag = "--threads";
    } else if (arg.rfind("--slice-cycles=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 15, &slice_cycles) || slice_cycles == 0) {
        std::fprintf(stderr, "ringsim: %s: expected a cycle count >= 1\n", arg.c_str());
        return 2;
      }
      saw_fleet_only_flag = true;
      fleet_only_flag = "--slice-cycles";
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 19, &checkpoint_every) || checkpoint_every == 0) {
        std::fprintf(stderr, "ringsim: %s: expected a quantum count >= 1\n", arg.c_str());
        return 2;
      }
      saw_fleet_only_flag = true;
      fleet_only_flag = "--checkpoint-every";
    } else if (arg.rfind("--max-restarts=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 15, &max_restarts) || max_restarts > 1000) {
        std::fprintf(stderr, "ringsim: %s: expected a restart count in 0..1000\n", arg.c_str());
        return 2;
      }
      saw_fleet_only_flag = true;
      fleet_only_flag = "--max-restarts";
    } else if (arg == "--cold-boot") {
      cold_boot = true;
      saw_fleet_only_flag = true;
      fleet_only_flag = "--cold-boot";
    } else if (arg.rfind("--fuzz=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 7, &fuzz_trials) || fuzz_trials == 0) {
        std::fprintf(stderr, "ringsim: %s: expected a trial count >= 1\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--fuzz-seed=", 0) == 0) {
      if (!rings::ParseU64(arg.c_str() + 12, &fuzz_seed)) {
        std::fprintf(stderr, "ringsim: %s: not a number\n", arg.c_str());
        return 2;
      }
      saw_fuzz_only_flag = true;
      fuzz_only_flag = "--fuzz-seed";
    } else if (arg == "--shrink") {
      fuzz_shrink = true;
      saw_fuzz_only_flag = true;
      fuzz_only_flag = "--shrink";
    } else if (arg == "--fuzz-ablation") {
      fuzz_ablation = true;
      saw_fuzz_only_flag = true;
      fuzz_only_flag = "--fuzz-ablation";
    } else if (arg == "--fuzz-chain-ablation") {
      fuzz_chain_ablation = true;
      saw_fuzz_only_flag = true;
      fuzz_only_flag = "--fuzz-chain-ablation";
    } else if (arg.rfind("--fuzz-repro-out=", 0) == 0) {
      fuzz_repro_out = arg.substr(17);
      if (fuzz_repro_out.empty()) {
        std::fprintf(stderr, "ringsim: %s: expected a file path\n", arg.c_str());
        return 2;
      }
      saw_fuzz_only_flag = true;
      fuzz_only_flag = "--fuzz-repro-out";
    } else if (arg.rfind("--snapshot-out=", 0) == 0) {
      snapshot_out = arg.substr(15);
      if (snapshot_out.empty()) {
        std::fprintf(stderr, "ringsim: %s: expected a file path\n", arg.c_str());
        return 2;
      }
    } else if (arg.rfind("--restore=", 0) == 0) {
      restore_path = arg.substr(10);
      if (restore_path.empty()) {
        std::fprintf(stderr, "ringsim: %s: expected a file path\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      if (!path.empty()) {
        std::fprintf(stderr, "ringsim: unexpected extra argument '%s' ('%s' already given)\n",
                     arg.c_str(), path.c_str());
        return 2;
      }
      path = arg;
    } else {
      std::fprintf(stderr, "ringsim: unknown option %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (fleet_size == 0 && saw_fleet_only_flag) {
    std::fprintf(stderr, "ringsim: %s is only valid with --fleet=N\n", fleet_only_flag.c_str());
    return 2;
  }
  if (fuzz_trials == 0 && saw_fuzz_only_flag) {
    std::fprintf(stderr, "ringsim: %s is only valid with --fuzz=N\n", fuzz_only_flag.c_str());
    return 2;
  }
  if (fuzz_trials > 0) {
    if (!path.empty()) {
      std::fprintf(stderr, "ringsim: --fuzz takes no program file (got '%s')\n", path.c_str());
      return 2;
    }
    if (fleet_size > 0 || !restore_path.empty()) {
      std::fprintf(stderr, "ringsim: --fuzz cannot be combined with --fleet or --restore\n");
      return 2;
    }
    return rings::RunFuzz(fuzz_trials, fuzz_seed, fuzz_shrink, fuzz_repro_out, fuzz_ablation,
                          fuzz_chain_ablation);
  }
  if (!restore_path.empty()) {
    if (!path.empty()) {
      std::fprintf(stderr, "ringsim: --restore takes no program file (got '%s')\n",
                   path.c_str());
      return 2;
    }
    if (fleet_size > 0) {
      std::fprintf(stderr, "ringsim: --restore cannot be combined with --fleet\n");
      return 2;
    }
    return rings::RunRestore(restore_path, snapshot_out, trace, fast_path, block_engine, stats,
                             max_cycles);
  }
  if (path.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (fleet_size > 0) {
    if (!snapshot_out.empty()) {
      std::fprintf(stderr, "ringsim: --snapshot-out is only valid in single-machine mode\n");
      return 2;
    }
    return rings::RunFleet(path, fleet_size, static_cast<int>(threads), slice_cycles,
                           checkpoint_every, static_cast<int>(max_restarts), cold_boot,
                           fast_path, block_engine, stats, max_cycles, fault_seed, fault_rate);
  }
  const rings::FaultConfig fault = rings::FaultConfig::Uniform(fault_seed, fault_rate);
  return rings::Run(path, list, trace, audit, fast_path, block_engine, stats, max_cycles, fault,
                    snapshot_out);
}

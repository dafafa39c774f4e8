// fleet_paged: closed batches of many short-to-medium machines cloned
// from golden images and run through Fleet::Run with checkpointing on.
// The guests write: demand-zero paged data, self-modifying code, and
// seeded generated guests, so the cpu caches run under invalidation and
// the TLB, supervisor page faults, copy-on-write privatisation, snapshot
// save/verify and the fleet scheduler all carry load.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/guests.h"
#include "perfbench/report.h"
#include "perfbench/workloads.h"
#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/fleet/golden_image.h"
#include "src/fuzz/generator.h"
#include "src/snapshot/snapshot.h"

namespace perfbench {

namespace {

constexpr int kThreads = 2;
constexpr int kGenerated = 8;       // distinct generated guests per seed
constexpr int kCopiesPerKernel = 3;  // clones of each pager / smc variant per batch
constexpr uint64_t kMaxCycles = 2'000'000;

rings::FleetConfig BatchConfig() {
  rings::FleetConfig config;
  config.threads = kThreads;
  config.checkpoint_every_quanta = 2;
  return config;
}

struct Program {
  std::string name;
  std::string source;
  uint64_t identity = 0;
};

// What a standalone Machine::Run of the program produces.
struct Reference {
  bool completed = false;
  int exit_code = 0;
  RunSignature signature;
};

struct Prepared {
  std::vector<Program> programs;
  std::vector<Reference> references;
  std::vector<std::shared_ptr<const rings::GoldenImage>> goldens;
  std::vector<size_t> batch;  // program index of each machine in a batch
  uint64_t golden_builds = 0;
};

std::unique_ptr<rings::Machine> Boot(const Program& program) {
  std::string error;
  std::unique_ptr<rings::Machine> machine = BootGuest(program.source, 0, &error);
  if (machine == nullptr) {
    std::fprintf(stderr, "perfbench: %s: %s\n", program.name.c_str(), error.c_str());
  }
  return machine;
}

bool Setup(uint64_t seed, Prepared* out) {
  Prepared prepared;
  std::vector<std::string> sources;
  for (int v = 0; v < 2; ++v) {
    sources.push_back(PagerSource(seed * 2 + v, 16384));
    sources.push_back(SmcSource(seed * 2 + v, 6000));
  }
  for (int g = 0; g < kGenerated; ++g) {
    sources.push_back(rings::GenerateGuest(seed * 1000 + g).source);
  }
  for (size_t p = 0; p < sources.size(); ++p) {
    Program program;
    program.name = rings::StrFormat("program%zu", p);
    program.source = sources[p];
    program.identity = Fnv1a(program.source);
    bool built = false;
    const Program& ref = program;
    auto golden = rings::GoldenImageRegistry::Instance().Acquire(
        program.identity, [&ref] { return Boot(ref); }, &built);
    prepared.golden_builds += built ? 1 : 0;
    std::unique_ptr<rings::Machine> standalone = Boot(program);
    if (golden == nullptr || standalone == nullptr) {
      return false;
    }
    const rings::RunResult run = standalone->Run(kMaxCycles);
    Reference reference;
    bool clean = false;
    reference.exit_code = ExitStatus(*standalone, &clean);
    reference.completed = run.idle && clean;
    reference.signature = SignatureOf(*standalone);
    prepared.programs.push_back(std::move(program));
    prepared.references.push_back(reference);
    prepared.goldens.push_back(std::move(golden));
  }
  for (size_t p = 0; p < 4; ++p) {
    for (int c = 0; c < kCopiesPerKernel; ++c) {
      prepared.batch.push_back(p);
    }
  }
  for (size_t p = 4; p < prepared.programs.size(); ++p) {
    prepared.batch.push_back(p);
  }
  *out = std::move(prepared);
  return true;
}

// One batch through the fleet; returns false on a result that differs
// from its standalone reference.
struct BatchOutcome {
  double wall_s = 0;
  rings::FleetStats stats;
  uint64_t failed = 0;
  uint64_t golden_hits = 0;
};

BatchOutcome RunBatch(const Prepared& prepared) {
  BatchOutcome out;
  // Each batch acquires its programs' golden images from the registry,
  // as a fleet front end does per run; they are live, so these are hits.
  std::vector<std::shared_ptr<const rings::GoldenImage>> goldens;
  for (const Program& program : prepared.programs) {
    bool built = false;
    goldens.push_back(rings::GoldenImageRegistry::Instance().Acquire(
        program.identity, [&program] { return Boot(program); }, &built));
    out.golden_hits += built ? 0 : 1;
  }
  rings::Fleet fleet(BatchConfig());
  for (const size_t p : prepared.batch) {
    const std::shared_ptr<const rings::GoldenImage> golden = goldens[p];
    fleet.Add(prepared.programs[p].name, [golden] { return golden->Spawn(); }, kMaxCycles);
  }
  const uint64_t t0 = NowNs();
  out.stats = fleet.Run();
  out.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (size_t m = 0; m < prepared.batch.size(); ++m) {
    const rings::MachineResult& result = fleet.results()[m];
    const Reference& reference = prepared.references[prepared.batch[m]];
    const RunSignature got{result.cycles, result.instructions, result.fingerprint,
                           rings::FingerprintCounters(result.counters)};
    if (!(got == reference.signature) || result.exit_code != reference.exit_code ||
        result.ok() != reference.completed) {
      ++out.failed;
      std::fprintf(stderr, "perfbench: fleet machine %zu differs from its reference: %s\n", m,
                   result.ToString().c_str());
    }
  }
  return out;
}

// The traced attribution pass: each job of a batch replayed on this
// thread through Spawn -> Run(slice) -> checkpoint at the fleet's cadence.
struct ReplayOutcome {
  uint64_t instructions = 0;
  uint64_t frames_privatized = 0;
  uint64_t private_kib = 0;
  double image_kib = 0;
  uint64_t images = 0;
};

ReplayOutcome ReplayBatch(const Prepared& prepared, uint64_t batch_id) {
  ReplayOutcome out;
  const rings::FleetConfig config = BatchConfig();
  ScopedSpan root("bench", "Batch", batch_id);
  for (size_t m = 0; m < prepared.batch.size(); ++m) {
    const size_t p = prepared.batch[m];
    std::shared_ptr<const rings::GoldenImage> golden;
    {
      ScopedSpan span("fleet", "Acquire", batch_id);
      golden = rings::GoldenImageRegistry::Instance().Acquire(
          prepared.programs[p].identity, [&] { return Boot(prepared.programs[p]); });
    }
    std::unique_ptr<rings::Machine> machine;
    {
      ScopedSpan span("fleet", "Spawn", batch_id);
      machine = golden->Spawn();
    }
    auto checkpoint = [&] {
      std::vector<uint8_t> image;
      std::string error;
      {
        ScopedSpan span("snapshot", "SaveSnapshot", batch_id);
        rings::SaveSnapshot(*machine, &image, &error);
      }
      {
        ScopedSpan span("snapshot", "VerifySnapshot", batch_id);
        rings::VerifySnapshot(image, &error);
      }
      out.image_kib += static_cast<double>(image.size()) / 1024;
      ++out.images;
    };
    // Fleet::RunQuantum counts construction as the machine's first
    // quantum and takes the baseline image then; run slice k is quantum
    // k + 1, and a checkpoint follows every quantum the cadence divides
    // unless the slice retired the machine.
    checkpoint();
    uint64_t consumed = 0;
    for (uint64_t quanta = 1;;) {
      rings::RunResult run;
      {
        ScopedSpan span("cpu", quanta == 1 ? "Run.first" : "Run", batch_id);
        run = machine->Run(std::min(config.slice_cycles, kMaxCycles - consumed));
      }
      ++quanta;
      consumed += run.cycles;
      out.instructions += run.instructions;
      if (run.idle || consumed >= kMaxCycles) {
        break;
      }
      if (quanta % config.checkpoint_every_quanta == 0) {
        checkpoint();
      }
    }
    out.frames_privatized += machine->memory().frames_privatized();
    out.private_kib += machine->memory().frame_stats().private_bytes() / 1024;
  }
  return out;
}

}  // namespace

int RunFleetPaged(const Args& args) {
  Prepared prepared;
  SetupTimer setup;
  const auto set_up = [&] { return Setup(args.seed, &prepared); };
  // Each repeat first releases the previous one's golden images, so it
  // builds them again.
  const auto release = [&] { prepared = Prepared{}; };
  if (!setup.Repeat(set_up, release)) {
    return kReferenceCheckFailed;
  }
  const size_t machines = prepared.batch.size();
  rings::Counters pass_counters{};
  uint64_t pass_cycles = 0;
  for (const size_t p : prepared.batch) {
    pass_cycles += prepared.references[p].signature.cycles;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t instructions = 0;
  uint64_t golden_hits = 0;
  double busy_s = 0;
  double fleet_wall_s = 0;
  uint64_t steals = 0;
  uint64_t quanta = 0;
  uint64_t batches = 0;
  std::vector<double> latency_ms;
  const uint64_t start = NowNs();
  // A traced run spends its first half on untraced fleet batches (for
  // FleetStats) and its second half on the single-threaded replay.
  const double fleet_share = args.trace ? 0.5 : 1.0;
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * fleet_share * 1e9);
  uint64_t paused_ns = 0;  // interleaved set-ups, not part of the measured time
  while (NowNs() < deadline + paused_ns) {
    if (!setup.Interleave(set_up, release, &paused_ns)) {
      return kReferenceCheckFailed;
    }
    const BatchOutcome batch = RunBatch(prepared);
    if (batches == 0) {
      pass_counters = batch.stats.aggregate;
    } else if (rings::FingerprintCounters(batch.stats.aggregate) !=
                   rings::FingerprintCounters(pass_counters) ||
               batch.stats.total_cycles != pass_cycles) {
      DeterminismBreak("fleet batch repeated with different counters or cycles");
    }
    ++batches;
    attempted += machines;
    failed += batch.failed;
    instructions += batch.stats.total_instructions;
    golden_hits += batch.golden_hits;
    latency_ms.push_back(batch.wall_s * 1e3);
    fleet_wall_s += batch.wall_s;
    for (const rings::WorkerStats& worker : batch.stats.workers) {
      busy_s += worker.busy_seconds;
      steals += worker.steals;
      quanta += worker.quanta;
    }
  }
  const double wall_s = static_cast<double>(NowNs() - start - paused_ns) / 1e9;
  const double tail = TailQuantile(latency_ms.size());
  const double p99_ms = Percentile(latency_ms, tail);
  std::fprintf(stderr,
               "perfbench: fleet_paged: %llu batches of %zu machines, %llu failed "
               "(failed_frac %.6f); p%.4g of %zu batches %.3f ms\n",
               static_cast<unsigned long long>(batches), machines,
               static_cast<unsigned long long>(failed),
               static_cast<double>(failed) / static_cast<double>(attempted), 100 * tail,
               latency_ms.size(), p99_ms);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup.MedianSeconds(), "s"},
        {"sim_mips", static_cast<double>(instructions) / wall_s / 1e6, "MIPS"},
        {"sim_cycles", static_cast<double>(pass_cycles), "cycles"},
        {"machines_per_s", static_cast<double>(attempted) / wall_s, "1/s"},
        {"peak_rss_mib", PeakRssMib(getpid()), "MiB"},
    };
  } else {
    double replay_ns[2] = {0, 0};
    uint64_t replay_count[2] = {0, 0};
    ReplayOutcome traced_pass;
    uint64_t traced_instructions = 0;
    const uint64_t trace_from = NowNs();
    const uint64_t replay_deadline = NowNs() + static_cast<uint64_t>(args.seconds * 0.5 * 1e9);
    for (uint64_t n = 0; NowNs() < replay_deadline || n < 2; ++n) {
      const bool traced = n % 2 == 1;
      GlobalTracer().Enable(traced);
      const uint64_t t0 = NowNs();
      const ReplayOutcome replay = ReplayBatch(prepared, n);
      replay_ns[traced] += static_cast<double>(NowNs() - t0);
      ++replay_count[traced];
      GlobalTracer().Enable(false);
      if (traced) {
        traced_pass = replay;
        traced_instructions += replay.instructions;
      }
    }
    LayerInputs in;
    in.pass_counters = pass_counters;
    in.traced_instructions = traced_instructions;
    in.traced_from_ns = trace_from;
    in.traced_to_ns = NowNs();
    const double b = static_cast<double>(batches);
    in.values = {
        {"fleet.golden_builds", static_cast<double>(prepared.golden_builds)},
        {"fleet.golden_hits", static_cast<double>(golden_hits) / b},
        {"mem.frames_privatized", static_cast<double>(traced_pass.frames_privatized)},
        {"mem.private_kib", static_cast<double>(traced_pass.private_kib)},
        {"snapshot.image_kib",
         traced_pass.images == 0 ? 0
                                 : traced_pass.image_kib / static_cast<double>(traced_pass.images)},
        {"latency.p50_ms", Percentile(latency_ms, 0.5)},
        {"latency.p99_ms", p99_ms},
        {"fleet.worker_busy_frac", busy_s / (kThreads * fleet_wall_s)},
        {"fleet.steals", static_cast<double>(steals) / b},
        {"fleet.quanta", static_cast<double>(quanta) / b},
        {"bench.trace_overhead_frac",
         (replay_ns[1] / static_cast<double>(replay_count[1])) /
                 (replay_ns[0] / static_cast<double>(replay_count[0])) -
             1},
    };
    metrics = LayerMetrics(in);
    if (!GlobalTracer().Write(args.workdir + "/trace-fleet_paged.jsonl")) {
      std::fprintf(stderr, "perfbench: could not write the trace file\n");
    }
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench

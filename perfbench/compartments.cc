// compartments: one machine at a time on one thread, from kasm source to
// exit status, over the compartmentalised key-value guest. The cpu
// engines do nearly all the work; kasm and sys are a small per-script
// share and no code or descriptor is ever written.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/guests.h"
#include "perfbench/report.h"
#include "perfbench/workloads.h"
#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/sys/machine.h"

namespace perfbench {

namespace {

constexpr uint64_t kScripts = 24;  // distinct scripts per seed

// Every eighth script ends in a hostile request, cycling the three kinds.
uint64_t HostileOp(uint64_t index) {
  constexpr uint64_t kKinds[] = {kReadStore, kCallStore, kForgeReply};
  return index % 8 == 7 ? kKinds[(index / 8) % 3] : 0;
}

struct Prepared {
  std::vector<std::string> sources;
  std::vector<ScriptExpect> expects;
  std::vector<uint64_t> requests;  // KV requests per script, hostile included
};

struct ScriptOutcome {
  bool ok = false;
  std::string failure;
  RunSignature signature;
  rings::Counters counters{};
  uint64_t frames_privatized = 0;
  uint64_t private_kib = 0;
};

ScriptOutcome RunScript(const std::string& source, const ScriptExpect& expect,
                        uint64_t request) {
  ScriptOutcome out;
  std::unique_ptr<rings::Machine> machine = BootGuest(source, request, &out.failure);
  if (machine == nullptr) {
    return out;
  }
  rings::RunResult run;
  {
    ScopedSpan span("cpu", "Run.first", request);
    run = machine->Run();
  }
  const rings::Process& process = *machine->supervisor().processes().front();
  out.counters = machine->cpu().counters();
  out.signature = SignatureOf(*machine);
  out.frames_privatized = machine->memory().frames_privatized();
  out.private_kib = machine->memory().frame_stats().private_bytes() / 1024;
  if (!run.idle) {
    out.failure = "did not finish";
  } else if (expect.cause == rings::TrapCause::kNone) {
    if (process.state != rings::ProcessState::kExited ||
        static_cast<uint64_t>(process.exit_code) != expect.checksum) {
      out.failure = rings::StrFormat("exit %lld, expected checksum %llu (%s)",
                                     static_cast<long long>(process.exit_code),
                                     static_cast<unsigned long long>(expect.checksum),
                                     rings::ProcessStatusLine(process).c_str());
    }
  } else if (process.state != rings::ProcessState::kKilled || process.kill_cause != expect.cause ||
             machine->PeekSegment("cdata", 0) != expect.checksum) {
    out.failure = rings::StrFormat("hostile request: %s, expected %s with checksum %llu",
                                   rings::ProcessStatusLine(process).c_str(),
                                   std::string(rings::TrapCauseName(expect.cause)).c_str(),
                                   static_cast<unsigned long long>(expect.checksum));
  }
  out.ok = out.failure.empty();
  return out;
}

// The paper's claim C1: the same script with the parser and store moved
// into the client's ring (same-ring calls) costs exactly the simulated
// cycles of the production layout (downward gate crossings).
bool CheckClaimC1(const Script& script) {
  uint64_t cycles[2] = {0, 0};
  uint64_t downward[2] = {0, 0};
  for (const bool flat : {false, true}) {
    std::string error;
    std::unique_ptr<rings::Machine> machine = BootGuest(CompartmentSource(script, flat), 0, &error);
    if (machine == nullptr) {
      std::fprintf(stderr, "perfbench: claim C1 guest: %s\n", error.c_str());
      return false;
    }
    cycles[flat] = machine->Run().cycles;
    downward[flat] = machine->cpu().counters().calls_downward;
  }
  if (cycles[0] != cycles[1] || downward[0] == 0 || downward[1] != 0) {
    std::fprintf(stderr,
                 "perfbench: claim C1 failed: cross-ring %llu cycles (%llu downward calls), "
                 "same-ring %llu cycles (%llu)\n",
                 static_cast<unsigned long long>(cycles[0]),
                 static_cast<unsigned long long>(downward[0]),
                 static_cast<unsigned long long>(cycles[1]),
                 static_cast<unsigned long long>(downward[1]));
    return false;
  }
  return true;
}

bool Setup(uint64_t seed, Prepared* out) {
  Prepared prepared;
  std::vector<Script> scripts;
  for (uint64_t i = 0; i < kScripts; ++i) {
    scripts.push_back(MakeScript(seed, i, ScriptShape{}, HostileOp(i)));
    prepared.sources.push_back(CompartmentSource(scripts.back()));
    prepared.expects.push_back(ModelScript(scripts.back()));
    prepared.requests.push_back(scripts.back().requests.size());
  }
  if (!CheckClaimC1(scripts.front())) {
    return false;
  }
  *out = std::move(prepared);
  return true;
}

}  // namespace

int RunCompartments(const Args& args) {
  Prepared prepared;
  SetupTimer setup;
  const auto set_up = [&] { return Setup(args.seed, &prepared); };
  if (!setup.Repeat(set_up, nullptr)) {
    return kReferenceCheckFailed;
  }

  // Repeats of a script must reproduce its first run exactly.
  std::vector<RunSignature> first(kScripts);
  std::vector<bool> seen(kScripts, false);
  rings::Counters pass_counters{};
  uint64_t pass_cycles = 0;
  uint64_t pass_frames = 0;
  uint64_t pass_private_kib = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t requests = 0;
  uint64_t instructions = 0;
  std::vector<double> latency_ms;
  // Traced runs alternate untraced and traced passes over the scripts,
  // so the difference between the two is the tracing overhead.
  double pass_ns[2] = {0, 0};
  uint64_t pass_count[2] = {0, 0};
  uint64_t traced_instructions = 0;

  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  uint64_t paused_ns = 0;  // interleaved set-ups, not part of the measured time
  for (uint64_t n = 0; NowNs() < deadline + paused_ns || n % kScripts != 0; ++n) {
    if (!setup.Interleave(set_up, nullptr, &paused_ns)) {
      return kReferenceCheckFailed;
    }
    const uint64_t i = n % kScripts;
    const bool traced = args.trace && (n / kScripts) % 2 == 1;
    GlobalTracer().Enable(traced);
    const uint64_t t0 = NowNs();
    ScriptOutcome outcome;
    {
      ScopedSpan root("bench", "Script", n);
      outcome = RunScript(prepared.sources[i], prepared.expects[i], n);
    }
    const uint64_t t1 = NowNs();
    GlobalTracer().Enable(false);
    pass_ns[traced] += static_cast<double>(t1 - t0);
    ++pass_count[traced];
    if (traced) {
      traced_instructions += outcome.signature.instructions;
    }
    if (!seen[i]) {
      seen[i] = true;
      first[i] = outcome.signature;
      pass_counters.Accumulate(outcome.counters);
      pass_cycles += outcome.signature.cycles;
      pass_frames += outcome.frames_privatized;
      pass_private_kib += outcome.private_kib;
    } else if (!(outcome.signature == first[i])) {
      DeterminismBreak(rings::StrFormat("script %llu repeated with different cycles, "
                                        "counters or fingerprint",
                                        static_cast<unsigned long long>(i)));
    }
    ++attempted;
    if (!outcome.ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: script %llu failed: %s\n",
                   static_cast<unsigned long long>(i), outcome.failure.c_str());
    }
    requests += prepared.requests[i];
    instructions += outcome.signature.instructions;
    if (!traced) {
      latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
  }
  const double wall_s = static_cast<double>(NowNs() - start - paused_ns) / 1e9;
  const double tail = TailQuantile(latency_ms.size());
  const double p99_ms = Percentile(latency_ms, tail);
  std::fprintf(stderr,
               "perfbench: compartments: %llu scripts, %llu failed (failed_frac %.6f); "
               "%.0f KV requests/s; p%.4g of %zu untraced scripts %.3f ms\n",
               static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
               static_cast<double>(failed) / static_cast<double>(attempted),
               static_cast<double>(requests) / wall_s, 100 * tail, latency_ms.size(), p99_ms);

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
    LayerInputs in;
    in.pass_counters = pass_counters;
    in.traced_instructions = traced_instructions;
    in.traced_from_ns = start;
    in.traced_to_ns = NowNs();
    in.values["mem.frames_privatized"] = static_cast<double>(pass_frames);
    in.values["mem.private_kib"] = static_cast<double>(pass_private_kib);
    in.values["latency.p50_ms"] = Percentile(latency_ms, 0.5);
    in.values["latency.p99_ms"] = p99_ms;
    in.values["bench.trace_overhead_frac"] =
        pass_count[0] == 0 || pass_count[1] == 0
            ? 0
            : (pass_ns[1] / static_cast<double>(pass_count[1])) /
                      (pass_ns[0] / static_cast<double>(pass_count[0])) -
                  1;
    metrics = LayerMetrics(in);
    if (!GlobalTracer().Write(args.workdir + "/trace-compartments.jsonl")) {
      std::fprintf(stderr, "perfbench: could not write the trace file\n");
    }
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench

#include "perfbench/report.h"

#include <cstdio>

namespace perfbench {

namespace {

// Layers whose self time the trace attributes; "bench" is the benchmark's
// own work between layer calls (the unattributed share).
constexpr const char* kLayers[] = {"kasm", "sys", "cpu", "fleet", "snapshot",
                                   "serve", "ringsimd", "bench"};

double Frac(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  const Tracer& tracer = GlobalTracer();
  const std::map<std::string, uint64_t> c = CounterMap(in.pass_counters);
  const std::map<std::string, double> self =
      tracer.SelfSeconds(in.traced_from_ns, in.traced_to_ns);
  double wall = 0;
  for (const auto& [layer, seconds] : self) {
    wall += seconds;
  }

  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    const auto it = in.values.find(name);
    AddKnown(&out, name, it != in.values.end() ? it->second : value, unit);
  };
  auto count = [&](const std::string& name, const char* counter) {
    add(name, CounterOr(c, counter), "count");
  };
  const double insns = CounterOr(c, "instructions");
  const double dispatches = CounterOr(c, "block_hits") + CounterOr(c, "block_builds") +
                            CounterOr(c, "chain_follows");

  add("kasm.assemble_us", tracer.MeanUs("Assemble"), "us");
  add("sys.boot_us", tracer.MeanUs("Boot"), "us");
  add("fleet.golden_builds", 0, "count");
  add("fleet.golden_hits", 0, "count");
  add("fleet.spawn_us", tracer.MeanUs("Spawn"), "us");
  add("cpu.first_slice_us", tracer.MeanUs("Run.first"), "us");
  add("mem.frames_privatized", 0, "count");
  add("mem.private_kib", 0, "KiB");
  add("cpu.ns_per_insn",
      Frac(self.count("cpu") ? self.at("cpu") * 1e9 : 0,
           static_cast<double>(in.traced_instructions)),
      "ns");
  add("cpu.block_ops_frac",
      Frac(CounterOr(c, "block_ops"), insns), "ratio");
  add("cpu.chain_follow_frac",
      Frac(CounterOr(c, "chain_follows"), dispatches),
      "ratio");
  add("cpu.crossing_hit_ratio", HitRatio(c, "crossing_hits", "crossing_misses"), "ratio");
  add("cpu.verdict_hit_ratio", HitRatio(c, "verdict_hits", "verdict_misses"), "ratio");
  add("cpu.insn_hit_ratio", HitRatio(c, "insn_cache_hits", "insn_cache_misses"), "ratio");
  add("cpu.sdw_hit_ratio", HitRatio(c, "sdw_cache_hits", "sdw_fetches"), "ratio");
  add("cpu.tlb_hit_ratio", HitRatio(c, "tlb_hits", "tlb_misses"), "ratio");
  count("cpu.tlb_invalidations", "tlb_invalidations");
  count("cpu.block_invalidations", "block_invalidations");
  count("cpu.block_bailouts", "block_bailouts");
  count("cpu.insn_cache_invalidations", "insn_cache_invalidations");
  count("sup.supervisor_steps", "supervisor_steps");
  count("sup.pages_supplied", "pages_supplied");
  count("sup.upward_calls_emulated", "upward_calls_emulated");
  count("sup.traps", "traps");
  add("snapshot.save_us", tracer.MeanUs("SaveSnapshot"), "us");
  add("snapshot.verify_us", tracer.MeanUs("VerifySnapshot"), "us");
  add("snapshot.image_kib", 0, "KiB");
  add("snapshot.restore_us", tracer.MeanUs("RestoreSnapshot"), "us");
  add("fleet.worker_busy_frac", 0, "ratio");
  add("fleet.steals", 0, "count");
  add("fleet.quanta", 0, "count");
  add("latency.p50_ms", 0, "ms");
  add("latency.p99_ms", 0, "ms");
  add("serve.max_rate_rps", 0, "1/s");
  add("serve.inproc_turnaround_us", 0, "us");
  add("serve.queue_us", 0, "us");
  add("ringsimd.protocol_us", 0, "us");
  add("bench.gen_lag_ms", 0, "ms");
  add("bench.trace_overhead_frac", 0, "ratio");
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    add(std::string(layer) + ".self_frac", Frac(it == self.end() ? 0 : it->second, wall),
        "ratio");
  }
  return out;
}

}  // namespace perfbench

// Shared machinery of the measuring process: command-line options, the
// span tracer used by traced runs, the result line, latency statistics,
// host-counter lookup by name, and the determinism check.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sys/machine.h"
#include "src/trace/counters.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string ringsimd;  // daemon binary (serve_mixed)
  std::string workdir;   // scratch directory for sockets and trace files
};

// ---- tracing ---------------------------------------------------------

// One timed call into a layer. `layer` is the module name (kasm, sys,
// cpu, fleet, snapshot, serve, ringsimd) or "bench" for the benchmark's own
// work; spans of one request share `request`.
struct Span {
  const char* layer = "";
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

// Spans are kept in memory and written out when the run ends. Only the
// single-threaded attribution passes record spans, so the
// tracer needs no locking; every other phase leaves it disabled.
class Tracer {
 public:
  void Enable(bool on) { on_ = on; }

  int64_t Begin(const char* layer, const char* name, uint64_t request);
  void End(int64_t id);

  // Per-layer self time (span duration minus its direct children), in
  // seconds, over spans whose start lies in [from, to).
  std::map<std::string, double> SelfSeconds(uint64_t from_ns, uint64_t to_ns) const;
  // Mean duration in microseconds of spans named `name` (0 when none).
  double MeanUs(const std::string& name) const;
  // Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  int64_t current_ = -1;
};

Tracer& GlobalTracer();

class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, uint64_t request = 0)
      : id_(GlobalTracer().Begin(layer, name, request)) {}
  ~ScopedSpan() { GlobalTracer().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t id_;
};

// ---- results ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The benchmark's final stdout line.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

// ---- set-up ----------------------------------------------------------

// Times a workload's complete set-up, repeated. One set-up takes
// milliseconds, and on a shared host a handful of them, taken at one
// moment, measure whatever the host was doing then; so set-ups are also
// spread over the measured region, as the other metrics are. setup_s is
// the median of every sample. `between`, when given, runs untimed before
// each set-up (to release what the previous one built). The calls return
// false when a set-up fails.
class SetupTimer {
 public:
  // Five set-ups back to back, before the measured region.
  bool Repeat(const std::function<bool()>& setup, const std::function<void()>& between);
  // Whether 0.4 s have passed since the last set-up.
  bool Due() const;
  // Inside the measured region: one set-up when Due(), its time (with
  // `between`) added to *paused_ns, which the caller leaves out of its
  // measured time.
  bool Interleave(const std::function<bool()>& setup, const std::function<void()>& between,
                  uint64_t* paused_ns);
  double MedianSeconds() const;

 private:
  bool Once(const std::function<bool()>& setup, const std::function<void()>& between);

  std::vector<double> seconds_;
  uint64_t last_ns_ = 0;
};

// ---- statistics ------------------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p);
// The highest percentile (at most 0.99) with at least ten samples beyond
// it, as the latency metrics report it.
double TailQuantile(size_t samples);

// ---- host observations -----------------------------------------------

// Every scalar counter by name (Counters::ForEachField), plus "traps"
// (the total of the per-cause array). Reading counters by name means a
// deleted counter drops its metric instead of breaking this build.
std::map<std::string, uint64_t> CounterMap(const rings::Counters& counters);
// a / (a + b) when both counters exist (0 when both are zero); NaN when
// a counter is missing, and the metric is then left out.
double HitRatio(const std::map<std::string, uint64_t>& c, const char* hits, const char* misses);
// c[name], or NaN when the counter is missing.
double CounterOr(const std::map<std::string, uint64_t>& c, const char* name);

// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double PeakRssMib(pid_t pid);
// Processor time (user + system, all threads) a process has used, in
// seconds; 0 when unreadable.
double CpuSeconds(pid_t pid);

// ---- determinism -----------------------------------------------------

// The simulated face of one finished machine. Repetitions of the same
// input must reproduce it exactly.
struct RunSignature {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t fingerprint = 0;
  uint64_t counters_digest = 0;

  bool operator==(const RunSignature&) const = default;
};

RunSignature SignatureOf(const rings::Machine& machine);

// Aborts the run (exit code 3, no result line) on a determinism break.
[[noreturn]] void DeterminismBreak(const std::string& what);

// ---- guests ----------------------------------------------------------

// Assembles a guest source (span kasm/Assemble) and boots it: the Machine
// constructor plus InstantiateGuest with its `;;` manifest (span
// sys/Boot). Null, with *error set, when either step fails.
std::unique_ptr<rings::Machine> BootGuest(const std::string& source, uint64_t request,
                                          std::string* error);

// ringsim-style exit status of a finished machine: the largest exit code
// (low byte), or 111 when a process was killed or never finished, in
// which case *clean is false.
int ExitStatus(const rings::Machine& machine, bool* clean);

// FNV-1a over a source text: a program identity covering its manifest.
uint64_t Fnv1a(const std::string& text);

// Appends a per-layer metric unless its value is unknown (NaN).
void AddKnown(std::vector<Metric>* metrics, const std::string& name, double value,
              const std::string& unit);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

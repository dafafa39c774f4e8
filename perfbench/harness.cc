#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "src/fleet/fingerprint.h"
#include "src/kasm/assembler.h"
#include "src/sys/manifest.h"

namespace perfbench {

int64_t Tracer::Begin(const char* layer, const char* name, uint64_t request) {
  if (!on_) {
    return -1;
  }
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = current_;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  current_ = static_cast<int64_t>(spans_.size()) - 1;
  return current_;
}

void Tracer::End(int64_t id) {
  if (id < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  current_ = span.parent;
}

std::map<std::string, double> Tracer::SelfSeconds(uint64_t from_ns, uint64_t to_ns) const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.start_ns < from_ns || span.start_ns >= to_ns) {
      continue;
    }
    self[span.layer] += (static_cast<double>(span.end_ns - span.start_ns) - child_ns[i]) / 1e9;
  }
  return self;
}

double Tracer::MeanUs(const std::string& name) const {
  double total = 0;
  size_t n = 0;
  for (const Span& span : spans_) {
    if (name == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns);
      ++n;
    }
  }
  return n == 0 ? 0 : total / static_cast<double>(n) / 1e3;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

bool SetupTimer::Once(const std::function<bool()>& setup,
                      const std::function<void()>& between) {
  if (between) {
    between();
  }
  const uint64_t start = NowNs();
  if (!setup()) {
    return false;
  }
  last_ns_ = NowNs();
  seconds_.push_back(static_cast<double>(last_ns_ - start) / 1e9);
  return true;
}

bool SetupTimer::Repeat(const std::function<bool()>& setup,
                        const std::function<void()>& between) {
  for (int n = 0; n < 5; ++n) {
    if (!Once(setup, between)) {
      return false;
    }
  }
  return true;
}

bool SetupTimer::Due() const {
  constexpr uint64_t kIntervalNs = 400'000'000;
  return NowNs() - last_ns_ >= kIntervalNs;
}

bool SetupTimer::Interleave(const std::function<bool()>& setup,
                            const std::function<void()>& between, uint64_t* paused_ns) {
  if (!Due()) {
    return true;
  }
  const uint64_t start = NowNs();
  const bool ok = Once(setup, between);
  *paused_ns += NowNs() - start;
  return ok;
}

double SetupTimer::MedianSeconds() const { return Median(seconds_); }

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailQuantile(size_t samples) {
  if (samples == 0) {
    return 0.5;
  }
  return std::max(0.5, std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples)));
}

std::map<std::string, uint64_t> CounterMap(const rings::Counters& counters) {
  std::map<std::string, uint64_t> out;
  rings::Counters::ForEachField(
      [&](const char* name, uint64_t rings::Counters::* member, bool) {
        out[name] = counters.*member;
      });
  out["traps"] = counters.TotalTraps();
  return out;
}

double HitRatio(const std::map<std::string, uint64_t>& c, const char* hits, const char* misses) {
  const auto h = c.find(hits);
  const auto m = c.find(misses);
  if (h == c.end() || m == c.end()) {
    return std::nan("");
  }
  const double total = static_cast<double>(h->second) + static_cast<double>(m->second);
  return total == 0 ? 0 : static_cast<double>(h->second) / total;
}

double CounterOr(const std::map<std::string, uint64_t>& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? std::nan("") : static_cast<double>(it->second);
}

double PeakRssMib(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

double CpuSeconds(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  // The fields after the parenthesised command name; utime and stime are
  // the 12th and 13th of them, in clock ticks.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return 0;
  }
  std::istringstream fields(line.substr(close + 1));
  std::string field;
  double ticks = 0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i >= 12) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

RunSignature SignatureOf(const rings::Machine& machine) {
  const rings::Counters& counters = machine.cpu().counters();
  return RunSignature{machine.cpu().cycles(), counters.instructions,
                      rings::FingerprintMachine(machine), rings::FingerprintCounters(counters)};
}

void DeterminismBreak(const std::string& what) {
  std::fprintf(stderr, "perfbench: determinism break: %s\n", what.c_str());
  std::exit(3);
}

std::unique_ptr<rings::Machine> BootGuest(const std::string& source, uint64_t request,
                                          std::string* error) {
  rings::AssembleResult assembled;
  {
    ScopedSpan span("kasm", "Assemble", request);
    assembled = rings::Assemble(source);
  }
  if (!assembled.ok) {
    *error = "assemble: " + assembled.error.ToString();
    return nullptr;
  }
  ScopedSpan span("sys", "Boot", request);
  const rings::Manifest manifest = rings::ParseManifest(source);
  auto machine = std::make_unique<rings::Machine>(rings::MachineConfig{});
  if (!manifest.ok()) {
    *error = "manifest: " + manifest.error;
    return nullptr;
  }
  if (!machine->ok() ||
      !rings::InstantiateGuest(assembled.program, manifest, machine.get(), error)) {
    *error = "instantiate: " + *error;
    return nullptr;
  }
  return machine;
}

int ExitStatus(const rings::Machine& machine, bool* clean) {
  int code = 0;
  *clean = true;
  for (const auto& process : machine.supervisor().processes()) {
    if (process->state == rings::ProcessState::kExited) {
      code = std::max(code, static_cast<int>(process->exit_code & 0xFF));
    } else {
      code = 111;
      *clean = false;
    }
  }
  return code;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void AddKnown(std::vector<Metric>* metrics, const std::string& name, double value,
              const std::string& unit) {
  if (!std::isnan(value)) {
    metrics->push_back(Metric{name, value, unit});
  } else {
    std::fprintf(stderr, "perfbench: %s not reported (its counter no longer exists)\n",
                 name.c_str());
  }
}

}  // namespace perfbench

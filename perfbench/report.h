// The per-layer ledger every traced run prints: one fixed list of
// metrics named module.quantity, so each workload reports all of them
// (zero where a workload does not reach a layer).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/trace/counters.h"

namespace perfbench {

struct LayerInputs {
  // Counters summed over one pass of the workload's input set, so
  // architectural counts are exact and repeat across runs.
  rings::Counters pass_counters{};
  // Host instructions' worth of work in the traced spans, for ns/insn.
  uint64_t traced_instructions = 0;
  // Root spans of the traced attribution pass start in [from, to).
  uint64_t traced_from_ns = 0;
  uint64_t traced_to_ns = 0;
  // Metrics measured directly by the workload, by name; they override
  // the span- and counter-derived defaults.
  std::map<std::string, double> values;
};

std::vector<Metric> LayerMetrics(const LayerInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

// The simulated-cycle cost model. The paper's performance argument is
// about *work the processor must do*: ring hardware adds "very small
// additional costs in hardware logic and processor speed", while a
// software implementation of rings pays a trap plus supervisor
// instructions on every crossing. We therefore account cycles for the
// events below and let benchmarks compare totals; the constants are
// deliberately simple and documented, and benches ablate them.
#ifndef SRC_TRACE_CYCLE_MODEL_H_
#define SRC_TRACE_CYCLE_MODEL_H_

#include <cstdint>

namespace rings {

struct CycleModel {
  // Base cost of decoding and executing any instruction.
  uint64_t instruction_base = 1;
  // Each word read or written in the core store.
  uint64_t memory_ref = 1;
  // Fetching an SDW pair from the descriptor segment (two word reads plus
  // the indexing). Paid only on a descriptor-cache miss.
  uint64_t sdw_fetch = 2;
  // The ring-validation comparisons themselves. The paper's design
  // integrates them into address translation at essentially zero marginal
  // cost; modelled as 0 by default so the overhead claim (C2) can be
  // tested by raising it.
  uint64_t access_check = 0;
  // A trap: save processor state, switch to ring 0, transfer to the fixed
  // supervisor location.
  uint64_t trap = 40;
  // RETT: restore processor state after a trap.
  uint64_t rett = 20;
  // One logical step of C++-bodied supervisor code (equivalent of a short
  // instruction sequence; see DESIGN.md substitution notes).
  uint64_t supervisor_step = 4;
  // Start-I/O channel latency until the completion trap.
  uint64_t io_latency = 200;

  static CycleModel Default() { return CycleModel{}; }
  bool operator==(const CycleModel&) const = default;
};

}  // namespace rings

#endif  // SRC_TRACE_CYCLE_MODEL_H_

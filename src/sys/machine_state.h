// One description of a machine's state: MachineState holds everything a
// machine carries besides its core store and its host-only caches, and
// one Visit(io, x) per structure walks its fields in one fixed order.
//
// The visitor is the only list of fields. It drives
//   - snapshot save (src/snapshot: io = the image Writer),
//   - snapshot restore (io = the image Reader, whose typed helpers check
//     each field as it is read: ring range, enum bound, fixed array
//     count, string length),
//   - the register part of the fingerprint (src/fleet: io = the mixer),
// and Machine::CloneFrom copies a MachineState wholesale. The visit order
// is the image's field order (DESIGN.md §8): reordering a visit changes
// the format, and a field added to a struct is saved, restored, cloned
// and compared only once it is added to its Visit.
//
// An Io provides U8/U32/U64/I64(field) (the wire width; any integer or
// enum field), Bool, Str, RingNo(ring, what), Enum8/Enum32(field, count,
// what), Count(n, what) for a fixed array's length, Seq(container, fn)
// and Map(map, fn) for variable-length ones, and kDecodes (true when the
// visit fills the structure in rather than reading it out).
#ifndef SRC_SYS_MACHINE_STATE_H_
#define SRC_SYS_MACHINE_STATE_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "src/base/strings.h"
#include "src/cpu/cpu.h"
#include "src/fault/fault_injector.h"
#include "src/sup/segment_registry.h"
#include "src/sup/supervisor.h"
#include "src/trace/event_trace.h"

namespace rings {

// A scheduled I/O completion on the simulated channel.
struct IoEvent {
  uint64_t due_cycle = 0;
  uint8_t device = 0;
};

// The device layer: typewriter operations started, protection audits
// run, and the I/O completions still in flight.
struct DeviceState {
  uint64_t tty_operations = 0;
  uint64_t audit_runs = 0;
  std::deque<IoEvent> pending_io;
};

struct MachineState {
  Cpu::State cpu;
  SegmentRegistry::State registry;
  Supervisor::State supervisor;
  EventTrace::State trace;
  std::optional<FaultInjector::State> fault;  // nullopt: no injector
  DeviceState device;
};

inline constexpr uint64_t kTrapCauseCount = static_cast<uint64_t>(TrapCause::kNumCauses);

// --- processor structures ---------------------------------------------------

template <class Io>
void Visit(Io& io, SegAddr& addr) {
  io.U32(addr.segno);
  io.U32(addr.wordno);
}

template <class Io>
void Visit(Io& io, PointerRegister& pr) {
  io.RingNo(pr.ring, "pointer-register ring");
  io.U32(pr.segno);
  io.U32(pr.wordno);
}

template <class Io>
void Visit(Io& io, DbrValue& dbr) {
  io.U64(dbr.base);
  io.U32(dbr.bound);
  io.U32(dbr.stack_base);
}

template <class Io>
void Visit(Io& io, RegisterFile& regs) {
  io.U64(regs.a);
  io.U64(regs.q);
  for (uint32_t& x : regs.x) {
    io.U32(x);
  }
  for (PointerRegister& pr : regs.pr) {
    Visit(io, pr);
  }
  Visit(io, regs.ipr);
  Visit(io, regs.dbr);
}

template <class Io>
void Visit(Io& io, SegmentAccess& access) {
  uint8_t flags = (access.flags.read ? 1 : 0) | (access.flags.write ? 2 : 0) |
                  (access.flags.execute ? 4 : 0);
  io.U8(flags);
  access.flags = AccessFlags{(flags & 1) != 0, (flags & 2) != 0, (flags & 4) != 0};
  io.RingNo(access.brackets.r1, "bracket ring");
  io.RingNo(access.brackets.r2, "bracket ring");
  io.RingNo(access.brackets.r3, "bracket ring");
  if constexpr (Io::kDecodes) {
    if (!access.brackets.IsWellFormed()) {
      io.Fail(StrFormat("bracket rings %u,%u,%u not ordered", access.brackets.r1,
                        access.brackets.r2, access.brackets.r3));
    }
  }
  io.U32(access.gate_count);
}

template <class Io>
void Visit(Io& io, Sdw& sdw) {
  io.Bool(sdw.present);
  io.Bool(sdw.paged);
  io.U64(sdw.base);
  io.U64(sdw.bound);
  Visit(io, sdw.access);
}

template <class Io>
void Visit(Io& io, Instruction& ins) {
  io.U8(ins.opcode);
  io.Bool(ins.indirect);
  io.Bool(ins.pr_relative);
  io.U8(ins.prnum);
  io.U8(ins.reg);
  io.U8(ins.tag);
  io.I64(ins.offset);
}

template <class Io>
void Visit(Io& io, TrapState& trap) {
  io.Enum32(trap.cause, kTrapCauseCount, "trap cause");
  Visit(io, trap.regs);
  Visit(io, trap.tpr);
  Visit(io, trap.instruction);
  io.I64(trap.code);
  Visit(io, trap.fault_addr);
}

inline size_t CounterFieldCount() {
  size_t count = 0;
  Counters::ForEachField([&count](const char*, uint64_t Counters::*, bool) { ++count; });
  return count;
}

template <class Io>
void Visit(Io& io, Counters& counters) {
  io.Count(CounterFieldCount(), "counter field count");
  Counters::ForEachField([&io, &counters](const char*, uint64_t Counters::* member, bool) {
    io.U64(counters.*member);
  });
  io.Count(counters.traps.size(), "trap array size");
  for (uint64_t& n : counters.traps) {
    io.U64(n);
  }
}

template <class Io>
void Visit(Io& io, SdwCache::State& cache) {
  io.Bool(cache.enabled);
  io.U64(cache.hits);
  io.U64(cache.misses);
  io.Count(cache.entries.size(), "descriptor-cache geometry");
  for (SdwCache::Entry& entry : cache.entries) {
    io.Bool(entry.valid);
    io.U32(entry.segno);
    Visit(io, entry.sdw);
  }
}

// The image's cpu section.
template <class Io>
void Visit(Io& io, Cpu::State& cpu) {
  io.U64(cpu.cycles);
  Visit(io, cpu.regs);
  Visit(io, cpu.tpr);
  io.Bool(cpu.checks_enabled);
  io.Bool(cpu.timer_enabled);
  io.I64(cpu.timer);
  io.Bool(cpu.trap_pending);
  Visit(io, cpu.trap_state);
  Visit(io, cpu.counters);
  Visit(io, cpu.sdw_cache);
}

// --- the segment registry -----------------------------------------------------

template <class Io>
void Visit(Io& io, RegisteredSegment& seg) {
  io.Str(seg.name);
  io.U32(seg.segno);
  io.U64(seg.base);
  io.Bool(seg.paged);
  io.U64(seg.bound);
  io.U32(seg.gate_count);
  io.Seq(seg.acl.entries(), [&io](AclEntry& entry) {
    io.Str(entry.user);
    Visit(io, entry.access);
  });
  io.Map(seg.symbols, [&io](auto& symbol, Wordno& wordno) {
    io.Str(symbol);
    io.U32(wordno);
  });
  io.Seq(seg.links, [&io](LinkTarget& link) {
    io.Str(link.segment);
    io.Str(link.symbol);
    io.I64(link.offset);
    io.RingNo(link.ring, "link ring");
    io.Bool(link.indirect);
  });
}

// The image's registry section.
template <class Io>
void Visit(Io& io, SegmentRegistry::State& registry) {
  io.U32(registry.next_segno);
  io.Seq(registry.segments, [&io](RegisteredSegment& seg) { Visit(io, seg); });
}

// --- the supervisor -------------------------------------------------------------

template <class Io>
void Visit(Io& io, ReturnGate& gate) {
  Visit(io, gate.expected_target);
  io.RingNo(gate.caller_ring, "return-gate ring");
  io.RingNo(gate.callee_ring, "return-gate ring");
  Visit(io, gate.saved_sp);
  Visit(io, gate.saved_sb);
  Visit(io, gate.saved_ap);
  io.U64(gate.transfer_words);
  io.Seq(gate.copied_args, [&io](ReturnGate::CopiedArg& arg) {
    Visit(io, arg.original);
    Visit(io, arg.transfer);
    io.U32(arg.length);
    io.RingNo(arg.effective_ring, "copied-arg ring");
  });
}

template <class Io>
void Visit(Io& io, Process& process) {
  io.I64(process.pid);
  io.Str(process.user);
  io.Enum8(process.state, static_cast<uint64_t>(ProcessState::kKilled) + 1, "process state");
  Visit(io, process.dbr);
  Visit(io, process.saved_regs);
  io.I64(process.exit_code);
  io.Enum32(process.kill_cause, kTrapCauseCount, "trap cause");
  Visit(io, process.kill_pc);
  io.U64(process.instructions_run);
  io.U64(process.dispatches);
  io.U64(process.trap_streak);
  io.U64(process.last_trap_instructions);
  io.Seq(process.return_gates, [&io](ReturnGate& gate) { Visit(io, gate); });
}

// The image's supervisor section.
template <class Io>
void Visit(Io& io, Supervisor::State& sup) {
  io.I64(sup.next_pid);
  io.I64(sup.anonymous_segments);
  io.Bool(sup.handling_trap);
  io.I64(sup.current_pid);
  io.Seq(sup.ready_pids, [&io](int& pid) { io.I64(pid); });
  io.Str(sup.tty_output);
  io.Str(sup.tty_input);
  io.Seq(sup.registered_users, [&io](std::string& user) { io.Str(user); });
  io.Seq(sup.processes, [&io](Process& process) { Visit(io, process); });
  if constexpr (Io::kDecodes) {
    if (const std::optional<int> pid = sup.UnknownPid()) {
      io.Fail(StrFormat("scheduler names unknown pid %d", *pid));
    }
  }
}

// --- trace, fault stream, devices ---------------------------------------------

// The image's trace section.
template <class Io>
void Visit(Io& io, EventTrace::State& trace) {
  io.Bool(trace.enabled);
  io.Seq(trace.events, [&io](TraceEvent& e) {
    io.Enum8(e.kind, static_cast<uint64_t>(EventKind::kProcessSwitch) + 1, "trace event kind");
    io.U64(e.cycle);
    io.RingNo(e.ring, "trace event ring");
    Visit(io, e.pc);
    io.Enum32(e.cause, kTrapCauseCount, "trap cause");
    io.RingNo(e.new_ring, "trace event ring");
    io.Str(e.note);
  });
}

// The image's fault section: a presence flag, then the injector's stream.
template <class Io>
void Visit(Io& io, std::optional<FaultInjector::State>& fault) {
  bool present = fault.has_value();
  io.Bool(present);
  if (!present) {
    return;
  }
  FaultInjector::State& state = fault.has_value() ? *fault : fault.emplace();
  io.Bool(state.config.enabled);
  io.U64(state.config.seed);
  io.Count(state.config.rate_ppm.size(), "fault-site count");
  for (uint32_t& ppm : state.config.rate_ppm) {
    io.U32(ppm);
  }
  io.U64(state.rng[0]);
  io.U64(state.rng[1]);
  io.U64(state.snapshot_rng[0]);
  io.U64(state.snapshot_rng[1]);
  io.Count(state.counts.size(), "fault-count array size");
  for (uint64_t& count : state.counts) {
    io.U64(count);
  }
  io.U64(state.sequence);
  io.Seq(state.events, [&io](FaultEvent& e) {
    io.U64(e.sequence);
    io.Enum32(e.site, kNumFaultSites, "fault site");
    io.U64(e.cycle);
    io.U32(e.segno);
    io.U32(e.wordno);
    io.Str(e.detail);
  });
}

// The image's device section.
template <class Io>
void Visit(Io& io, DeviceState& device) {
  io.U64(device.tty_operations);
  io.U64(device.audit_runs);
  io.Seq(device.pending_io, [&io](IoEvent& event) {
    io.U64(event.due_cycle);
    io.U8(event.device);
  });
}

// The whole state, part by part in image section order.
template <class Io>
void Visit(Io& io, MachineState& state) {
  Visit(io, state.cpu);
  Visit(io, state.registry);
  Visit(io, state.supervisor);
  Visit(io, state.trace);
  Visit(io, state.fault);
  Visit(io, state.device);
}

}  // namespace rings

#endif  // SRC_SYS_MACHINE_STATE_H_

#include "src/snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <memory>
#include <utility>

#include "src/base/strings.h"
#include "src/core/ring.h"
#include "src/core/trap_cause.h"

namespace rings {

namespace {

// --------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — table-driven, no dependencies.
// --------------------------------------------------------------------------

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

constexpr uint32_t ByteSwap32(uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
}

// --------------------------------------------------------------------------
// Wire primitives: byte-explicit little-endian writer and bounds-checked
// reader. Every reader failure carries a structured message; readers never
// index past the buffer.
// --------------------------------------------------------------------------

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const std::vector<uint8_t>& buf() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() {
    if (!Need(1)) {
      return 0;
    }
    return data_[pos_++];
  }
  uint32_t U32() {
    if (!Need(4)) {
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  std::string Str() {
    const uint64_t len = U64();
    if (!ok_) {
      return {};
    }
    if (len > size_ - pos_) {
      Fail(StrFormat("string length %llu exceeds remaining payload",
                     static_cast<unsigned long long>(len)));
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return s;
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  bool AtEnd() const { return !ok_ || pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

  void Fail(std::string message) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(message);
    }
  }

 private:
  bool Need(size_t n) {
    if (!ok_) {
      return false;
    }
    if (size_ - pos_ < n) {
      Fail("payload truncated");
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// --------------------------------------------------------------------------
// Image layout.
//
// Header (16 bytes): magic u32, version u32, section count u32, CRC-32 of
// the first 12 bytes. Then `section count` sections, each framed as
// id u32, payload length u64, payload CRC-32 u32, payload bytes. No
// padding, no trailing bytes.
// --------------------------------------------------------------------------

enum class Section : uint32_t {
  kMeta = 1,
  kMemory = 2,
  kCpu = 3,
  kRegistry = 4,
  kSupervisor = 5,
  kTrace = 6,
  kFault = 7,
  kDevice = 8,
};
constexpr uint32_t kNumSections = 8;
constexpr size_t kHeaderBytes = 16;
constexpr size_t kSectionFrameBytes = 4 + 8 + 4;

void AppendSection(std::vector<uint8_t>* image, Section id, const std::vector<uint8_t>& payload) {
  Writer frame;
  frame.U32(static_cast<uint32_t>(id));
  frame.U64(payload.size());
  frame.U32(Crc32(payload.data(), payload.size()));
  image->insert(image->end(), frame.buf().begin(), frame.buf().end());
  image->insert(image->end(), payload.begin(), payload.end());
}

struct SectionSpan {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool present = false;
};

// Header + section-table walk shared by VerifySnapshot and the decoders.
// Fills `spans` (indexed by section id - 1) when non-null.
bool WalkImage(const uint8_t* data, size_t size, std::array<SectionSpan, kNumSections>* spans,
               std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (size < kHeaderBytes) {
    return fail(StrFormat("image truncated: %zu bytes, header needs %zu", size, kHeaderBytes));
  }
  Reader header(data, kHeaderBytes);
  const uint32_t magic = header.U32();
  const uint32_t version = header.U32();
  const uint32_t section_count = header.U32();
  const uint32_t header_crc = header.U32();
  if (magic != kSnapshotMagic) {
    if (magic == ByteSwap32(kSnapshotMagic)) {
      return fail("wrong-endian image (magic is byte-swapped)");
    }
    return fail(StrFormat("bad magic 0x%08x (expected 0x%08x)", magic, kSnapshotMagic));
  }
  if (version != kSnapshotVersion) {
    return fail(StrFormat("unsupported snapshot version %u (expected %u)", version,
                          kSnapshotVersion));
  }
  if (header_crc != Crc32(data, 12)) {
    return fail("header CRC mismatch");
  }
  if (section_count != kNumSections) {
    return fail(StrFormat("unexpected section count %u (expected %u)", section_count,
                          kNumSections));
  }
  size_t pos = kHeaderBytes;
  for (uint32_t s = 0; s < section_count; ++s) {
    if (size - pos < kSectionFrameBytes) {
      return fail(StrFormat("image truncated in section table (section %u of %u)", s + 1,
                            section_count));
    }
    Reader frame(data + pos, kSectionFrameBytes);
    const uint32_t id = frame.U32();
    const uint64_t length = frame.U64();
    const uint32_t crc = frame.U32();
    pos += kSectionFrameBytes;
    if (id == 0 || id > kNumSections) {
      return fail(StrFormat("unknown section id %u", id));
    }
    if (length > size - pos) {
      return fail(StrFormat("section %u truncated: %llu payload bytes declared, %zu remain", id,
                            static_cast<unsigned long long>(length), size - pos));
    }
    if (crc != Crc32(data + pos, static_cast<size_t>(length))) {
      return fail(StrFormat("section %u payload CRC mismatch", id));
    }
    if (spans != nullptr) {
      SectionSpan& span = (*spans)[id - 1];
      if (span.present) {
        return fail(StrFormat("duplicate section id %u", id));
      }
      span = SectionSpan{data + pos, static_cast<size_t>(length), true};
    }
    pos += static_cast<size_t>(length);
  }
  if (pos != size) {
    return fail(StrFormat("trailing bytes after last section (%zu of %zu consumed)", pos, size));
  }
  if (spans != nullptr) {
    for (uint32_t id = 1; id <= kNumSections; ++id) {
      if (!(*spans)[id - 1].present) {
        return fail(StrFormat("missing section id %u", id));
      }
    }
  }
  return true;
}

// --------------------------------------------------------------------------
// Shared codecs for architectural structures.
// --------------------------------------------------------------------------

void WritePointerRegister(Writer* w, const PointerRegister& pr) {
  w->U8(pr.ring);
  w->U32(pr.segno);
  w->U32(pr.wordno);
}

PointerRegister ReadPointerRegister(Reader* r) {
  PointerRegister pr;
  const uint8_t ring = r->U8();
  pr.segno = r->U32();
  pr.wordno = r->U32();
  if (r->ok() && !IsValidRing(ring)) {
    r->Fail(StrFormat("pointer-register ring %u out of range", ring));
    return pr;
  }
  pr.ring = ring;
  return pr;
}

void WriteSegAddr(Writer* w, const SegAddr& addr) {
  w->U32(addr.segno);
  w->U32(addr.wordno);
}

SegAddr ReadSegAddr(Reader* r) {
  SegAddr addr;
  addr.segno = r->U32();
  addr.wordno = r->U32();
  return addr;
}

void WriteRegisterFile(Writer* w, const RegisterFile& regs) {
  w->U64(regs.a);
  w->U64(regs.q);
  for (const uint32_t x : regs.x) {
    w->U32(x);
  }
  for (const PointerRegister& pr : regs.pr) {
    WritePointerRegister(w, pr);
  }
  WritePointerRegister(w, regs.ipr);
  w->U64(regs.dbr.base);
  w->U32(regs.dbr.bound);
  w->U32(regs.dbr.stack_base);
}

RegisterFile ReadRegisterFile(Reader* r) {
  RegisterFile regs;
  regs.a = r->U64();
  regs.q = r->U64();
  for (uint32_t& x : regs.x) {
    x = r->U32();
  }
  for (PointerRegister& pr : regs.pr) {
    pr = ReadPointerRegister(r);
  }
  regs.ipr = ReadPointerRegister(r);
  regs.dbr.base = r->U64();
  regs.dbr.bound = r->U32();
  regs.dbr.stack_base = r->U32();
  return regs;
}

void WriteSegmentAccess(Writer* w, const SegmentAccess& access) {
  uint8_t flags = 0;
  flags |= access.flags.read ? 1u : 0u;
  flags |= access.flags.write ? 2u : 0u;
  flags |= access.flags.execute ? 4u : 0u;
  w->U8(flags);
  w->U8(access.brackets.r1);
  w->U8(access.brackets.r2);
  w->U8(access.brackets.r3);
  w->U32(access.gate_count);
}

SegmentAccess ReadSegmentAccess(Reader* r) {
  SegmentAccess access;
  const uint8_t flags = r->U8();
  access.flags.read = (flags & 1u) != 0;
  access.flags.write = (flags & 2u) != 0;
  access.flags.execute = (flags & 4u) != 0;
  const uint8_t r1 = r->U8();
  const uint8_t r2 = r->U8();
  const uint8_t r3 = r->U8();
  access.gate_count = r->U32();
  if (r->ok() && (!IsValidRing(r1) || !IsValidRing(r2) || !IsValidRing(r3))) {
    r->Fail(StrFormat("bracket rings (%u,%u,%u) out of range", r1, r2, r3));
    return access;
  }
  access.brackets = Brackets{r1, r2, r3};
  return access;
}

void WriteSdw(Writer* w, const Sdw& sdw) {
  w->Bool(sdw.present);
  w->Bool(sdw.paged);
  w->U64(sdw.base);
  w->U64(sdw.bound);
  WriteSegmentAccess(w, sdw.access);
}

Sdw ReadSdw(Reader* r) {
  Sdw sdw;
  sdw.present = r->Bool();
  sdw.paged = r->Bool();
  sdw.base = r->U64();
  sdw.bound = r->U64();
  sdw.access = ReadSegmentAccess(r);
  return sdw;
}

void WriteInstruction(Writer* w, const Instruction& ins) {
  w->U8(static_cast<uint8_t>(ins.opcode));
  w->Bool(ins.indirect);
  w->Bool(ins.pr_relative);
  w->U8(ins.prnum);
  w->U8(ins.reg);
  w->U8(ins.tag);
  w->I64(ins.offset);
}

Instruction ReadInstruction(Reader* r) {
  Instruction ins;
  ins.opcode = static_cast<Opcode>(r->U8());
  ins.indirect = r->Bool();
  ins.pr_relative = r->Bool();
  ins.prnum = r->U8();
  ins.reg = r->U8();
  ins.tag = r->U8();
  ins.offset = static_cast<int32_t>(r->I64());
  return ins;
}

TrapCause ReadTrapCause(Reader* r) {
  const uint32_t cause = r->U32();
  if (r->ok() && cause >= static_cast<uint32_t>(TrapCause::kNumCauses)) {
    r->Fail(StrFormat("trap cause %u out of range", cause));
    return TrapCause::kNone;
  }
  return static_cast<TrapCause>(cause);
}

void WriteTrapState(Writer* w, const TrapState& trap) {
  w->U32(static_cast<uint32_t>(trap.cause));
  WriteRegisterFile(w, trap.regs);
  WritePointerRegister(w, trap.tpr);
  WriteInstruction(w, trap.instruction);
  w->I64(trap.code);
  WriteSegAddr(w, trap.fault_addr);
}

TrapState ReadTrapState(Reader* r) {
  TrapState trap;
  trap.cause = ReadTrapCause(r);
  trap.regs = ReadRegisterFile(r);
  trap.tpr = ReadPointerRegister(r);
  trap.instruction = ReadInstruction(r);
  trap.code = r->I64();
  trap.fault_addr = ReadSegAddr(r);
  return trap;
}

size_t CounterFieldCount() {
  size_t count = 0;
  Counters::ForEachField([&count](const char*, uint64_t Counters::*, bool) { ++count; });
  return count;
}

void WriteCounters(Writer* w, const Counters& counters) {
  w->U32(static_cast<uint32_t>(CounterFieldCount()));
  Counters::ForEachField([w, &counters](const char*, uint64_t Counters::* member, bool) {
    w->U64(counters.*member);
  });
  w->U32(static_cast<uint32_t>(counters.traps.size()));
  for (const uint64_t n : counters.traps) {
    w->U64(n);
  }
}

Counters ReadCounters(Reader* r) {
  Counters counters;
  const uint32_t fields = r->U32();
  if (r->ok() && fields != CounterFieldCount()) {
    r->Fail(StrFormat("counter field count %u does not match this build's %zu", fields,
                      CounterFieldCount()));
    return counters;
  }
  Counters::ForEachField([r, &counters](const char*, uint64_t Counters::* member, bool) {
    counters.*member = r->U64();
  });
  const uint32_t traps = r->U32();
  if (r->ok() && traps != counters.traps.size()) {
    r->Fail(StrFormat("trap array size %u does not match this build's %zu", traps,
                      counters.traps.size()));
    return counters;
  }
  for (uint64_t& n : counters.traps) {
    n = r->U64();
  }
  return counters;
}

// --------------------------------------------------------------------------
// Section payload encoders (save side).
// --------------------------------------------------------------------------

std::vector<uint8_t> EncodeMeta(const Machine& machine) {
  Writer w;
  const MachineConfig& config = machine.config();
  w.U64(machine.memory().size());
  w.U8(static_cast<uint8_t>(machine.cpu().mode()));
  w.I64(machine.supervisor().options().quantum);
  w.I64(machine.supervisor().options().trap_storm_limit);
  const CycleModel& cm = config.cycle_model;
  w.U64(cm.instruction_base);
  w.U64(cm.memory_ref);
  w.U64(cm.sdw_fetch);
  w.U64(cm.access_check);
  w.U64(cm.trap);
  w.U64(cm.rett);
  w.U64(cm.supervisor_step);
  w.U64(cm.io_latency);
  return w.buf();
}

std::vector<uint8_t> EncodeMemory(const Machine& machine) {
  Writer w;
  const PhysicalMemory& memory = machine.memory();
  w.U64(memory.allocated());
  w.U64(memory.fault_count());
  const auto latched = memory.fault_pending() ? memory.TakeFault() : std::nullopt;
  if (latched.has_value()) {
    // TakeFault cleared the latch (it models a read-to-clear hardware
    // indicator); re-arm it so saving is observation-free.
    const_cast<PhysicalMemory&>(memory).RestoreFaultLatch(latched, memory.fault_count());
  }
  w.Bool(latched.has_value());
  if (latched.has_value()) {
    w.U64(latched->addr);
    w.Bool(latched->write);
  }
  // Zero-run RLE over the core store: the typical machine allocates a few
  // hundred K words out of a multi-megaword store, so images stay compact.
  // Read through the non-latching word() accessor — the COW store has no
  // contiguous backing array to hand out. A zero run steps over a whole
  // frame still aliasing the zero frame at once, so saving costs the
  // populated frames, not the store size; the runs (and bytes) are the
  // same as a word-by-word scan's.
  const size_t size = memory.size();
  w.U64(size);
  size_t i = 0;
  while (i < size) {
    size_t j = i;
    if (memory.word(i) == 0) {
      while (j < size) {
        if ((j & PhysicalMemory::kFrameMask) == 0 &&
            memory.aliases_zero_frame(j >> PhysicalMemory::kFrameShift)) {
          j = std::min(j + PhysicalMemory::kFrameWords, size);
        } else if (memory.word(j) == 0) {
          ++j;
        } else {
          break;
        }
      }
      w.U8(0);
      w.U64(j - i);
    } else {
      while (j < size && memory.word(j) != 0) {
        ++j;
      }
      w.U8(1);
      w.U64(j - i);
      for (size_t k = i; k < j; ++k) {
        w.U64(memory.word(k));
      }
    }
    i = j;
  }
  return w.buf();
}

std::vector<uint8_t> EncodeCpu(const Machine& machine) {
  Writer w;
  const Cpu& cpu = machine.cpu();
  w.U64(cpu.cycles());
  WriteRegisterFile(&w, cpu.regs());
  WritePointerRegister(&w, cpu.tpr());
  w.Bool(cpu.checks_enabled());
  w.Bool(cpu.timer_enabled());
  w.I64(cpu.timer());
  w.Bool(cpu.trap_pending());
  WriteTrapState(&w, cpu.trap_state());
  WriteCounters(&w, cpu.counters());
  const SdwCache& cache = cpu.sdw_cache();
  w.Bool(cache.enabled());
  w.U64(cache.hits());
  w.U64(cache.misses());
  w.U32(static_cast<uint32_t>(SdwCache::kEntries));
  for (size_t e = 0; e < SdwCache::kEntries; ++e) {
    const SdwCache::SnapshotEntry entry = cache.SnapshotAt(e);
    w.Bool(entry.valid);
    w.U32(entry.segno);
    WriteSdw(&w, entry.sdw);
  }
  return w.buf();
}

std::vector<uint8_t> EncodeRegistry(const Machine& machine) {
  Writer w;
  const SegmentRegistry& registry = machine.registry();
  w.U32(registry.next_segno());
  w.U64(registry.segments().size());
  for (const RegisteredSegment& seg : registry.segments()) {
    w.Str(seg.name);
    w.U32(seg.segno);
    w.U64(seg.base);
    w.Bool(seg.paged);
    w.U64(seg.bound);
    w.U32(seg.gate_count);
    w.U64(seg.acl.entries().size());
    for (const AclEntry& entry : seg.acl.entries()) {
      w.Str(entry.user);
      WriteSegmentAccess(&w, entry.access);
    }
    w.U64(seg.symbols.size());
    for (const auto& [symbol, wordno] : seg.symbols) {
      w.Str(symbol);
      w.U32(wordno);
    }
    w.U64(seg.links.size());
    for (const LinkTarget& link : seg.links) {
      w.Str(link.segment);
      w.Str(link.symbol);
      w.I64(link.offset);
      w.U8(link.ring);
      w.Bool(link.indirect);
    }
  }
  return w.buf();
}

std::vector<uint8_t> EncodeSupervisor(const Machine& machine) {
  Writer w;
  const Supervisor& sup = machine.supervisor();
  const Supervisor::SchedulerSnapshot sched = sup.SnapshotScheduler();
  w.I64(sched.next_pid);
  w.I64(sched.anonymous_segments);
  w.Bool(sched.handling_trap);
  w.I64(sched.current_pid);
  w.U64(sched.ready_pids.size());
  for (const int pid : sched.ready_pids) {
    w.I64(pid);
  }
  w.Str(sup.tty_output());
  w.Str(const_cast<Supervisor&>(sup).tty_input());
  w.U64(sup.registered_users().size());
  for (const std::string& user : sup.registered_users()) {
    w.Str(user);
  }
  w.U64(sup.processes().size());
  for (const auto& process : sup.processes()) {
    w.I64(process->pid);
    w.Str(process->user);
    w.U8(static_cast<uint8_t>(process->state));
    w.U64(process->dbr.base);
    w.U32(process->dbr.bound);
    w.U32(process->dbr.stack_base);
    WriteRegisterFile(&w, process->saved_regs);
    w.I64(process->exit_code);
    w.U32(static_cast<uint32_t>(process->kill_cause));
    WriteSegAddr(&w, process->kill_pc);
    w.U64(process->instructions_run);
    w.U64(process->dispatches);
    w.U64(process->trap_streak);
    w.U64(process->last_trap_instructions);
    w.U64(process->return_gates.size());
    for (const ReturnGate& gate : process->return_gates) {
      WriteSegAddr(&w, gate.expected_target);
      w.U8(gate.caller_ring);
      w.U8(gate.callee_ring);
      WritePointerRegister(&w, gate.saved_sp);
      WritePointerRegister(&w, gate.saved_sb);
      WritePointerRegister(&w, gate.saved_ap);
      w.U64(gate.transfer_words);
      w.U64(gate.copied_args.size());
      for (const ReturnGate::CopiedArg& arg : gate.copied_args) {
        WriteSegAddr(&w, arg.original);
        WriteSegAddr(&w, arg.transfer);
        w.U32(arg.length);
        w.U8(arg.effective_ring);
      }
    }
  }
  return w.buf();
}

std::vector<uint8_t> EncodeTrace(const Machine& machine) {
  Writer w;
  const EventTrace& trace = machine.trace();
  w.Bool(trace.enabled());
  w.U64(trace.events().size());
  for (const TraceEvent& e : trace.events()) {
    w.U8(static_cast<uint8_t>(e.kind));
    w.U64(e.cycle);
    w.U8(e.ring);
    WriteSegAddr(&w, e.pc);
    w.U32(static_cast<uint32_t>(e.cause));
    w.U8(e.new_ring);
    w.Str(e.note);
  }
  return w.buf();
}

std::vector<uint8_t> EncodeFault(const Machine& machine) {
  Writer w;
  const FaultInjector* injector = machine.fault_injector();
  w.Bool(injector != nullptr);
  if (injector == nullptr) {
    return w.buf();
  }
  const FaultConfig& config = injector->config();
  w.Bool(config.enabled);
  w.U64(config.seed);
  w.U32(static_cast<uint32_t>(config.rate_ppm.size()));
  for (const uint32_t ppm : config.rate_ppm) {
    w.U32(ppm);
  }
  w.U64(injector->rng().state(0));
  w.U64(injector->rng().state(1));
  w.U64(injector->snapshot_rng().state(0));
  w.U64(injector->snapshot_rng().state(1));
  w.U32(static_cast<uint32_t>(injector->counts().size()));
  for (const uint64_t count : injector->counts()) {
    w.U64(count);
  }
  w.U64(injector->sequence());
  w.U64(injector->events().size());
  for (const FaultEvent& e : injector->events()) {
    w.U64(e.sequence);
    w.U32(static_cast<uint32_t>(e.site));
    w.U64(e.cycle);
    w.U32(e.segno);
    w.U32(e.wordno);
    w.Str(e.detail);
  }
  return w.buf();
}

std::vector<uint8_t> EncodeDevice(const Machine& machine) {
  Writer w;
  w.U64(machine.tty_operations());
  w.U64(machine.audit_runs());
  w.U64(machine.pending_io().size());
  for (const Machine::IoEvent& event : machine.pending_io()) {
    w.U64(event.due_cycle);
    w.U8(event.device);
  }
  return w.buf();
}

// --------------------------------------------------------------------------
// Section payload decoders (restore side). Everything decodes into host
// structures before any machine state is touched, so a rejected image
// leaves the machine unchanged.
// --------------------------------------------------------------------------

struct DecodedMemory {
  AbsAddr next_free = 0;
  uint64_t fault_count = 0;
  std::optional<MemoryFault> latched;
  PhysicalMemory::FrameList frames;  // only the frames holding a nonzero word
};

struct DecodedCpu {
  uint64_t cycles = 0;
  RegisterFile regs;
  Tpr tpr;
  bool checks_enabled = true;
  bool timer_enabled = false;
  int64_t timer = 0;
  bool trap_pending = false;
  TrapState trap_state;
  Counters counters;
  bool sdw_cache_enabled = true;
  uint64_t sdw_hits = 0;
  uint64_t sdw_misses = 0;
  std::array<SdwCache::SnapshotEntry, SdwCache::kEntries> sdw_entries{};
};

struct DecodedSupervisor {
  Supervisor::SchedulerSnapshot sched;
  std::string tty_output;
  std::string tty_input;
  std::vector<std::string> users;
  std::vector<std::unique_ptr<Process>> processes;
};

struct DecodedFault {
  bool present = false;
  FaultConfig config;
  uint64_t rng_state0 = 0;
  uint64_t rng_state1 = 0;
  uint64_t snapshot_rng_state0 = 0;
  uint64_t snapshot_rng_state1 = 0;
  std::array<uint64_t, kNumFaultSites> counts{};
  uint64_t sequence = 0;
  std::vector<FaultEvent> events;
};

struct DecodedDevice {
  uint64_t tty_operations = 0;
  uint64_t audit_runs = 0;
  std::deque<Machine::IoEvent> pending_io;
};

bool SectionError(Reader* r, Section id, std::string* error) {
  if (r->ok() && !r->AtEnd()) {
    r->Fail("unconsumed payload bytes");
  }
  if (r->ok()) {
    return true;
  }
  if (error != nullptr) {
    *error = StrFormat("section %u: %s", static_cast<uint32_t>(id), r->error().c_str());
  }
  return false;
}

bool DecodeMeta(const SectionSpan& span, SnapshotMeta* meta, std::string* error) {
  Reader r(span.data, span.size);
  meta->memory_words = r.U64();
  if (r.ok() && meta->memory_words > kMaxSnapshotMemoryWords) {
    r.Fail(StrFormat("implausible store size %llu words",
                     static_cast<unsigned long long>(meta->memory_words)));
  }
  const uint8_t mode = r.U8();
  if (r.ok() && mode > static_cast<uint8_t>(ProtectionMode::kFlags645)) {
    r.Fail(StrFormat("protection mode %u out of range", mode));
  }
  meta->mode = static_cast<ProtectionMode>(mode);
  meta->quantum = r.I64();
  meta->trap_storm_limit = r.I64();
  CycleModel& cm = meta->cycle_model;
  cm.instruction_base = r.U64();
  cm.memory_ref = r.U64();
  cm.sdw_fetch = r.U64();
  cm.access_check = r.U64();
  cm.trap = r.U64();
  cm.rett = r.U64();
  cm.supervisor_step = r.U64();
  cm.io_latency = r.U64();
  return SectionError(&r, Section::kMeta, error);
}

// Decodes the memory section of an image for a `machine_words`-word
// store. Only the frames holding a nonzero word are kept: each costs the
// image at least one 8-byte literal, so the decoded size follows the
// image's bytes, never the store size it declares.
bool DecodeMemory(const SectionSpan& span, uint64_t machine_words, DecodedMemory* out,
                  std::string* error) {
  Reader r(span.data, span.size);
  out->next_free = r.U64();
  out->fault_count = r.U64();
  if (r.Bool()) {
    MemoryFault fault;
    fault.addr = r.U64();
    fault.write = r.Bool();
    out->latched = fault;
  }
  const uint64_t words = r.U64();
  if (r.ok() && words > kMaxSnapshotMemoryWords) {
    r.Fail(StrFormat("implausible store size %llu words", static_cast<unsigned long long>(words)));
  }
  if (r.ok() && words != machine_words) {
    r.Fail(StrFormat("memory section carries %llu words for a %llu-word machine",
                     static_cast<unsigned long long>(words),
                     static_cast<unsigned long long>(machine_words)));
  }
  if (!r.ok()) {
    return SectionError(&r, Section::kMemory, error);
  }
  PhysicalMemory::FrameList& frames = out->frames;
  uint64_t filled = 0;
  while (r.ok() && filled < words) {
    const uint8_t tag = r.U8();
    const uint64_t count = r.U64();
    if (!r.ok()) {
      break;
    }
    if (count == 0 || count > words - filled) {
      r.Fail(StrFormat("memory run of %llu words overflows the %llu-word store",
                       static_cast<unsigned long long>(count),
                       static_cast<unsigned long long>(words)));
      break;
    }
    if (tag == 0) {
      filled += count;  // unlisted frames restore as zero
    } else if (tag == 1) {
      for (const uint64_t end = filled + count; filled < end && r.ok(); ++filled) {
        const Word value = r.U64();
        if (value == 0) {
          continue;
        }
        const size_t frame = static_cast<size_t>(filled >> PhysicalMemory::kFrameShift);
        if (frames.frames.empty() || frames.frames.back() != frame) {
          frames.frames.push_back(frame);
          frames.words.resize(frames.words.size() + PhysicalMemory::kFrameWords, 0);
        }
        const size_t base = frames.words.size() - PhysicalMemory::kFrameWords;
        frames.words[base + (filled & PhysicalMemory::kFrameMask)] = value;
      }
    } else {
      r.Fail(StrFormat("unknown memory run tag %u", tag));
    }
  }
  return SectionError(&r, Section::kMemory, error);
}

bool DecodeCpu(const SectionSpan& span, DecodedCpu* out, std::string* error) {
  Reader r(span.data, span.size);
  out->cycles = r.U64();
  out->regs = ReadRegisterFile(&r);
  out->tpr = ReadPointerRegister(&r);
  out->checks_enabled = r.Bool();
  out->timer_enabled = r.Bool();
  out->timer = r.I64();
  out->trap_pending = r.Bool();
  out->trap_state = ReadTrapState(&r);
  out->counters = ReadCounters(&r);
  out->sdw_cache_enabled = r.Bool();
  out->sdw_hits = r.U64();
  out->sdw_misses = r.U64();
  const uint32_t entries = r.U32();
  if (r.ok() && entries != SdwCache::kEntries) {
    r.Fail(StrFormat("descriptor-cache geometry %u does not match this build's %zu", entries,
                     SdwCache::kEntries));
  }
  for (size_t e = 0; e < SdwCache::kEntries && r.ok(); ++e) {
    out->sdw_entries[e].valid = r.Bool();
    out->sdw_entries[e].segno = r.U32();
    out->sdw_entries[e].sdw = ReadSdw(&r);
  }
  return SectionError(&r, Section::kCpu, error);
}

bool DecodeRegistry(const SectionSpan& span, Segno* next_segno,
                    std::vector<RegisteredSegment>* segments, std::string* error) {
  Reader r(span.data, span.size);
  *next_segno = r.U32();
  const uint64_t count = r.U64();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    RegisteredSegment seg;
    seg.name = r.Str();
    seg.segno = r.U32();
    seg.base = r.U64();
    seg.paged = r.Bool();
    seg.bound = r.U64();
    seg.gate_count = r.U32();
    const uint64_t acl_entries = r.U64();
    for (uint64_t a = 0; a < acl_entries && r.ok(); ++a) {
      AclEntry entry;
      entry.user = r.Str();
      entry.access = ReadSegmentAccess(&r);
      seg.acl.Add(std::move(entry));
    }
    const uint64_t symbols = r.U64();
    for (uint64_t s = 0; s < symbols && r.ok(); ++s) {
      std::string symbol = r.Str();
      const Wordno wordno = r.U32();
      seg.symbols[std::move(symbol)] = wordno;
    }
    const uint64_t links = r.U64();
    for (uint64_t l = 0; l < links && r.ok(); ++l) {
      LinkTarget link;
      link.segment = r.Str();
      link.symbol = r.Str();
      link.offset = r.I64();
      const uint8_t ring = r.U8();
      link.indirect = r.Bool();
      if (r.ok() && !IsValidRing(ring)) {
        r.Fail(StrFormat("link ring %u out of range", ring));
        break;
      }
      link.ring = ring;
      seg.links.push_back(std::move(link));
    }
    segments->push_back(std::move(seg));
  }
  return SectionError(&r, Section::kRegistry, error);
}

bool DecodeSupervisor(const SectionSpan& span, DecodedSupervisor* out, std::string* error) {
  Reader r(span.data, span.size);
  out->sched.next_pid = static_cast<int>(r.I64());
  out->sched.anonymous_segments = static_cast<int>(r.I64());
  out->sched.handling_trap = r.Bool();
  out->sched.current_pid = static_cast<int>(r.I64());
  const uint64_t ready = r.U64();
  for (uint64_t i = 0; i < ready && r.ok(); ++i) {
    out->sched.ready_pids.push_back(static_cast<int>(r.I64()));
  }
  out->tty_output = r.Str();
  out->tty_input = r.Str();
  const uint64_t users = r.U64();
  for (uint64_t i = 0; i < users && r.ok(); ++i) {
    out->users.push_back(r.Str());
  }
  const uint64_t processes = r.U64();
  for (uint64_t i = 0; i < processes && r.ok(); ++i) {
    auto process = std::make_unique<Process>();
    process->pid = static_cast<int>(r.I64());
    process->user = r.Str();
    const uint8_t state = r.U8();
    if (r.ok() && state > static_cast<uint8_t>(ProcessState::kKilled)) {
      r.Fail(StrFormat("process state %u out of range", state));
      break;
    }
    process->state = static_cast<ProcessState>(state);
    process->dbr.base = r.U64();
    process->dbr.bound = r.U32();
    process->dbr.stack_base = r.U32();
    process->saved_regs = ReadRegisterFile(&r);
    process->exit_code = r.I64();
    process->kill_cause = ReadTrapCause(&r);
    process->kill_pc = ReadSegAddr(&r);
    process->instructions_run = r.U64();
    process->dispatches = r.U64();
    process->trap_streak = r.U64();
    process->last_trap_instructions = r.U64();
    const uint64_t gates = r.U64();
    for (uint64_t g = 0; g < gates && r.ok(); ++g) {
      ReturnGate gate;
      gate.expected_target = ReadSegAddr(&r);
      const uint8_t caller_ring = r.U8();
      const uint8_t callee_ring = r.U8();
      if (r.ok() && (!IsValidRing(caller_ring) || !IsValidRing(callee_ring))) {
        r.Fail(StrFormat("return-gate rings (%u,%u) out of range", caller_ring, callee_ring));
        break;
      }
      gate.caller_ring = caller_ring;
      gate.callee_ring = callee_ring;
      gate.saved_sp = ReadPointerRegister(&r);
      gate.saved_sb = ReadPointerRegister(&r);
      gate.saved_ap = ReadPointerRegister(&r);
      gate.transfer_words = r.U64();
      const uint64_t args = r.U64();
      for (uint64_t a = 0; a < args && r.ok(); ++a) {
        ReturnGate::CopiedArg arg;
        arg.original = ReadSegAddr(&r);
        arg.transfer = ReadSegAddr(&r);
        arg.length = r.U32();
        const uint8_t ring = r.U8();
        if (r.ok() && !IsValidRing(ring)) {
          r.Fail(StrFormat("copied-arg ring %u out of range", ring));
          break;
        }
        arg.effective_ring = ring;
        gate.copied_args.push_back(arg);
      }
      process->return_gates.push_back(std::move(gate));
    }
    out->processes.push_back(std::move(process));
  }
  if (r.ok()) {
    // Validate the scheduler's pid references while everything is still
    // host-side, so applying the decoded state cannot fail.
    auto has_pid = [out](int pid) {
      for (const auto& p : out->processes) {
        if (p->pid == pid) {
          return true;
        }
      }
      return false;
    };
    for (const int pid : out->sched.ready_pids) {
      if (!has_pid(pid)) {
        r.Fail(StrFormat("scheduler names unknown ready pid %d", pid));
        break;
      }
    }
    if (r.ok() && out->sched.current_pid != 0 && !has_pid(out->sched.current_pid)) {
      r.Fail(StrFormat("scheduler names unknown current pid %d", out->sched.current_pid));
    }
  }
  return SectionError(&r, Section::kSupervisor, error);
}

bool DecodeTrace(const SectionSpan& span, bool* enabled, std::deque<TraceEvent>* events,
                 std::string* error) {
  Reader r(span.data, span.size);
  *enabled = r.Bool();
  const uint64_t count = r.U64();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    TraceEvent e;
    const uint8_t kind = r.U8();
    if (r.ok() && kind > static_cast<uint8_t>(EventKind::kProcessSwitch)) {
      r.Fail(StrFormat("trace event kind %u out of range", kind));
      break;
    }
    e.kind = static_cast<EventKind>(kind);
    e.cycle = r.U64();
    const uint8_t ring = r.U8();
    e.pc = ReadSegAddr(&r);
    e.cause = ReadTrapCause(&r);
    const uint8_t new_ring = r.U8();
    e.note = r.Str();
    if (r.ok() && (!IsValidRing(ring) || !IsValidRing(new_ring))) {
      r.Fail(StrFormat("trace event rings (%u,%u) out of range", ring, new_ring));
      break;
    }
    e.ring = ring;
    e.new_ring = new_ring;
    events->push_back(std::move(e));
  }
  return SectionError(&r, Section::kTrace, error);
}

bool DecodeFault(const SectionSpan& span, DecodedFault* out, std::string* error) {
  Reader r(span.data, span.size);
  out->present = r.Bool();
  if (!out->present) {
    return SectionError(&r, Section::kFault, error);
  }
  out->config.enabled = r.Bool();
  out->config.seed = r.U64();
  const uint32_t rates = r.U32();
  if (r.ok() && rates != kNumFaultSites) {
    r.Fail(StrFormat("fault-site count %u does not match this build's %zu", rates,
                     kNumFaultSites));
  }
  for (size_t i = 0; i < kNumFaultSites && r.ok(); ++i) {
    out->config.rate_ppm[i] = r.U32();
  }
  out->rng_state0 = r.U64();
  out->rng_state1 = r.U64();
  out->snapshot_rng_state0 = r.U64();
  out->snapshot_rng_state1 = r.U64();
  const uint32_t counts = r.U32();
  if (r.ok() && counts != kNumFaultSites) {
    r.Fail(StrFormat("fault-count array size %u does not match this build's %zu", counts,
                     kNumFaultSites));
  }
  for (size_t i = 0; i < kNumFaultSites && r.ok(); ++i) {
    out->counts[i] = r.U64();
  }
  out->sequence = r.U64();
  const uint64_t events = r.U64();
  for (uint64_t i = 0; i < events && r.ok(); ++i) {
    FaultEvent e;
    e.sequence = r.U64();
    const uint32_t site = r.U32();
    if (r.ok() && site >= kNumFaultSites) {
      r.Fail(StrFormat("fault site %u out of range", site));
      break;
    }
    e.site = static_cast<FaultSite>(site);
    e.cycle = r.U64();
    e.segno = r.U32();
    e.wordno = r.U32();
    e.detail = r.Str();
    out->events.push_back(std::move(e));
  }
  return SectionError(&r, Section::kFault, error);
}

bool DecodeDevice(const SectionSpan& span, DecodedDevice* out, std::string* error) {
  Reader r(span.data, span.size);
  out->tty_operations = r.U64();
  out->audit_runs = r.U64();
  const uint64_t count = r.U64();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    Machine::IoEvent event;
    event.due_cycle = r.U64();
    event.device = r.U8();
    out->pending_io.push_back(event);
  }
  return SectionError(&r, Section::kDevice, error);
}

bool SameCycleModel(const CycleModel& a, const CycleModel& b) {
  return a.instruction_base == b.instruction_base && a.memory_ref == b.memory_ref &&
         a.sdw_fetch == b.sdw_fetch && a.access_check == b.access_check && a.trap == b.trap &&
         a.rett == b.rett && a.supervisor_step == b.supervisor_step &&
         a.io_latency == b.io_latency;
}

}  // namespace

// --------------------------------------------------------------------------
// Public API.
// --------------------------------------------------------------------------

MachineConfig RestoreConfig(const SnapshotMeta& meta, MachineConfig engine) {
  engine.memory_words = static_cast<size_t>(meta.memory_words);
  engine.cycle_model = meta.cycle_model;
  engine.quantum = meta.quantum;
  engine.mode = meta.mode;
  return engine;
}

bool SaveSnapshot(const Machine& machine, std::vector<uint8_t>* out, std::string* error,
                  FaultInjector* write_injector) {
  if (!machine.ok()) {
    if (error != nullptr) {
      *error = "machine failed construction; nothing to snapshot";
    }
    return false;
  }
  out->clear();
  Writer header;
  header.U32(kSnapshotMagic);
  header.U32(kSnapshotVersion);
  header.U32(kNumSections);
  *out = header.buf();
  {
    Writer crc;
    crc.U32(Crc32(out->data(), out->size()));
    out->insert(out->end(), crc.buf().begin(), crc.buf().end());
  }
  AppendSection(out, Section::kMeta, EncodeMeta(machine));
  AppendSection(out, Section::kMemory, EncodeMemory(machine));
  AppendSection(out, Section::kCpu, EncodeCpu(machine));
  AppendSection(out, Section::kRegistry, EncodeRegistry(machine));
  AppendSection(out, Section::kSupervisor, EncodeSupervisor(machine));
  AppendSection(out, Section::kTrace, EncodeTrace(machine));
  AppendSection(out, Section::kFault, EncodeFault(machine));
  AppendSection(out, Section::kDevice, EncodeDevice(machine));
  if (write_injector != nullptr) {
    size_t byte_index = 0;
    uint8_t mask = 0;
    if (write_injector->MaybeCorruptSnapshotWrite(machine.cpu().cycles(), out->size(),
                                                  &byte_index, &mask)) {
      (*out)[byte_index] ^= mask;
    }
  }
  return true;
}

bool VerifySnapshot(const uint8_t* data, size_t size, std::string* error) {
  std::array<SectionSpan, kNumSections> spans{};
  return WalkImage(data, size, &spans, error);
}

bool PeekSnapshotMeta(const uint8_t* data, size_t size, SnapshotMeta* meta, std::string* error) {
  std::array<SectionSpan, kNumSections> spans{};
  if (!WalkImage(data, size, &spans, error)) {
    return false;
  }
  return DecodeMeta(spans[static_cast<size_t>(Section::kMeta) - 1], meta, error);
}

bool RestoreSnapshot(const uint8_t* data, size_t size, Machine* machine, std::string* error,
                     FaultInjector* read_injector) {
  // A simulated read fault damages the image on its way in; the CRC pass
  // below then rejects it with a structured error, exactly as a real
  // corrupted checkpoint read would present.
  std::vector<uint8_t> damaged;
  if (read_injector != nullptr && size > 0) {
    size_t byte_index = 0;
    uint8_t mask = 0;
    if (read_injector->MaybeCorruptSnapshotRead(machine->cpu().cycles(), size, &byte_index,
                                                &mask)) {
      damaged.assign(data, data + size);
      damaged[byte_index] ^= mask;
      data = damaged.data();
    }
  }

  std::array<SectionSpan, kNumSections> spans{};
  if (!WalkImage(data, size, &spans, error)) {
    return false;
  }
  auto span = [&spans](Section id) -> const SectionSpan& {
    return spans[static_cast<size_t>(id) - 1];
  };

  // Check the image's machine shape first, then decode everything
  // host-side: a structurally invalid or incompatible image is rejected
  // before any machine state changes, and the memory section decodes
  // knowing the store it must fill.
  SnapshotMeta meta;
  if (!DecodeMeta(span(Section::kMeta), &meta, error)) {
    return false;
  }
  if (!machine->ok()) {
    if (error != nullptr) {
      *error = "target machine failed construction";
    }
    return false;
  }
  if (meta.memory_words != machine->memory().size()) {
    if (error != nullptr) {
      *error = StrFormat("image memory size %llu words does not match machine's %zu",
                         static_cast<unsigned long long>(meta.memory_words),
                         machine->memory().size());
    }
    return false;
  }
  if (!SameCycleModel(meta.cycle_model, machine->config().cycle_model)) {
    if (error != nullptr) {
      *error = "image cycle model does not match the machine's (trajectories would diverge)";
    }
    return false;
  }
  DecodedMemory memory;
  DecodedCpu cpu;
  Segno next_segno = 0;
  std::vector<RegisteredSegment> segments;
  DecodedSupervisor sup;
  bool trace_enabled = false;
  std::deque<TraceEvent> trace_events;
  DecodedFault fault;
  DecodedDevice device;
  if (!DecodeMemory(span(Section::kMemory), meta.memory_words, &memory, error) ||
      !DecodeCpu(span(Section::kCpu), &cpu, error) ||
      !DecodeRegistry(span(Section::kRegistry), &next_segno, &segments, error) ||
      !DecodeSupervisor(span(Section::kSupervisor), &sup, error) ||
      !DecodeTrace(span(Section::kTrace), &trace_enabled, &trace_events, error) ||
      !DecodeFault(span(Section::kFault), &fault, error) ||
      !DecodeDevice(span(Section::kDevice), &device, error)) {
    return false;
  }

  // Apply, in dependency order. Core store first; then flush every derived
  // host-side cache BEFORE reinstating counters, so the flushes' host-only
  // counter bumps are overwritten by the image's exact values.
  machine->memory().RestoreFrames(memory.frames);
  machine->memory().RestoreAllocator(memory.next_free);
  machine->memory().RestoreFaultLatch(memory.latched, memory.fault_count);

  Cpu& c = machine->cpu();
  c.FlushSdwCache();
  c.FlushInsnCache();
  c.FlushTlb();
  c.set_mode(meta.mode);
  c.set_checks_enabled(cpu.checks_enabled);
  c.RestoreExecutionState(cpu.regs, cpu.tpr, cpu.cycles);
  c.RestoreTimer(cpu.timer_enabled, cpu.timer);
  c.RestoreTrapState(cpu.trap_pending, cpu.trap_state);
  c.sdw_cache().set_enabled(cpu.sdw_cache_enabled);
  for (size_t e = 0; e < SdwCache::kEntries; ++e) {
    const SdwCache::SnapshotEntry& entry = cpu.sdw_entries[e];
    c.sdw_cache().RestoreEntry(e, entry.valid, entry.segno, entry.sdw);
  }
  c.sdw_cache().RestoreStats(cpu.sdw_hits, cpu.sdw_misses);
  c.counters() = cpu.counters;

  machine->registry().RestoreState(next_segno, std::move(segments));

  Supervisor& supervisor = machine->supervisor();
  supervisor.set_quantum(meta.quantum);
  supervisor.set_trap_storm_limit(meta.trap_storm_limit);
  std::string restore_error;
  if (!supervisor.RestoreProcesses(std::move(sup.processes), sup.sched, &restore_error)) {
    if (error != nullptr) {
      *error = restore_error;  // unreachable: pids were validated at decode
    }
    return false;
  }
  supervisor.RestoreTty(std::move(sup.tty_output), std::move(sup.tty_input));
  supervisor.RestoreRegisteredUsers(std::move(sup.users));

  machine->trace().Restore(trace_enabled, std::move(trace_events));

  if (fault.present) {
    FaultInjector* injector = machine->EnsureFaultInjector(fault.config);
    injector->RestoreStream(fault.rng_state0, fault.rng_state1, fault.snapshot_rng_state0,
                            fault.snapshot_rng_state1, fault.counts, fault.sequence,
                            std::move(fault.events));
  } else {
    machine->ClearFaultInjector();
  }

  machine->RestorePendingIo(std::move(device.pending_io));
  machine->RestoreDeviceCounters(device.tty_operations, device.audit_runs);
  return true;
}

bool SaveSnapshotFile(const Machine& machine, const std::string& path, std::string* error,
                      FaultInjector* write_injector) {
  std::vector<uint8_t> image;
  if (!SaveSnapshot(machine, &image, error, write_injector)) {
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = StrFormat("cannot open '%s' for writing", path.c_str());
    }
    return false;
  }
  const size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != image.size() || !closed) {
    if (error != nullptr) {
      *error = StrFormat("short write to '%s'", path.c_str());
    }
    return false;
  }
  return true;
}

bool ReadSnapshotFile(const std::string& path, std::vector<uint8_t>* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = StrFormat("cannot open '%s' for reading", path.c_str());
    }
    return false;
  }
  out->clear();
  std::array<uint8_t, 65536> chunk;
  size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    out->insert(out->end(), chunk.begin(), chunk.begin() + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    if (error != nullptr) {
      *error = StrFormat("read error on '%s'", path.c_str());
    }
    return false;
  }
  return true;
}

bool RestoreSnapshotFile(const std::string& path, Machine* machine, std::string* error,
                         FaultInjector* read_injector) {
  std::vector<uint8_t> image;
  if (!ReadSnapshotFile(path, &image, error)) {
    return false;
  }
  return RestoreSnapshot(image.data(), image.size(), machine, error, read_injector);
}

}  // namespace rings

#include "src/sup/supervisor.h"

#include "src/base/bitfield.h"
#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/isa/indirect_word.h"
#include "src/kasm/assembler.h"
#include "src/mem/page_table.h"
#include "src/mem/sdw.h"

namespace rings {

namespace {

constexpr uint32_t kMaxArgs = 16;

// Guest code for the supervisor's gate segments. Every service is entered
// by an ordinary hardware CALL to a gate word; the gate transfers to a
// body that issues the SVC (whose C++ implementation runs in the
// supervisor) and returns to the caller's ring with a hardware RETURN via
// the return pointer.
constexpr char kGateSource[] = R"(
; ring-1 supervisor gates, callable from rings 2-5
        .segment sup_gates
        .gates 7
g_exit: tra b_exit
g_ttyw: tra b_ttyw
g_ttyr: tra b_ttyr
g_ring: tra b_ring
g_acl:  tra b_acl
g_cyc:  tra b_cyc
g_mkseg: tra b_mkseg
b_exit: svc 1
        tra b_exit       ; not reached: exit does not return
b_ttyw: svc 2
        ret pr7|0
b_ttyr: svc 3
        ret pr7|0
b_ring: svc 4
        ret pr7|0
b_acl:  svc 5
        ret pr7|0
b_cyc:  svc 7
        ret pr7|0
b_mkseg: svc 8
        ret pr7|0

; ring-0 supervisor gates: the internal interface between the two
; supervisor layers ("Some gates into ring 0 are accessible to the
; processes of all users, but only to procedures executing in ring 1.")
        .segment sup_gates0
        .gates 1
g0_cyc: tra b0_cyc
b0_cyc: svc 7
        ret pr7|0

; administrative gates: the ACL restricts these to the processes of
; system administrators ("a gate for registering new users that is
; available only from the processes of system administrators").
        .segment admin_gates
        .gates 1
g_reg:  tra b_reg
b_reg:  svc 6
        ret pr7|0
)";

}  // namespace

Supervisor::Supervisor(Cpu* cpu, PhysicalMemory* memory, SegmentRegistry* registry,
                       Options options)
    : cpu_(cpu), memory_(memory), registry_(registry), options_(options) {}

void Supervisor::Charge(uint64_t steps) {
  cpu_->ChargeCycles(steps * cpu_->cycle_model().supervisor_step);
  cpu_->counters().supervisor_steps += steps;
}

bool Supervisor::Initialize() {
  const AssembleResult result = Assemble(kGateSource);
  if (!result.ok) {
    RINGS_LOG(kError) << "supervisor gate assembly failed: " << result.error.ToString();
    return false;
  }
  std::map<std::string, AccessControlList> acls;
  // Ring-1 gates: execute bracket [1,1], gate extension to ring 5 —
  // "Procedures executing in rings 6 and 7 are not given access to
  // supervisor gates."
  acls[kGateSegmentRing1] =
      AccessControlList::Public(MakeProcedureSegment(1, 1, 5, /*gate_count=*/7));
  // Ring-0 gates: callable from ring 1 only (the supervisor's internal
  // layer interface).
  acls[kGateSegmentRing0] =
      AccessControlList::Public(MakeProcedureSegment(0, 0, 1, /*gate_count=*/1));
  // Admin gates: same brackets as ring-1 gates but only for user "admin".
  acls[kAdminGateSegment] =
      AccessControlList::ForUser("admin", MakeProcedureSegment(1, 1, 5, /*gate_count=*/1));

  std::string error;
  if (!registry_->LoadProgram(result.program, acls, &error)) {
    RINGS_LOG(kError) << "supervisor gate load failed: " << error;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Process management
// ---------------------------------------------------------------------------

Process* Supervisor::CreateProcess(const std::string& user) {
  auto dseg = DescriptorSegment::Create(memory_, kDescriptorSegmentSlots, kStackBaseSegno);
  if (!dseg.has_value()) {
    return nullptr;
  }

  auto process = std::make_unique<Process>();
  process->pid = next_pid_++;
  process->user = user;
  process->dbr = dseg->dbr();

  // Eight per-ring stack segments at segment numbers 0..7. "The stack
  // segment for procedures executing in ring n has read and write brackets
  // that end at ring n."
  for (Ring ring = 0; ring < kRingCount; ++ring) {
    const auto base = memory_->Allocate(kStackSegmentWords);
    if (!base.has_value()) {
      return nullptr;
    }
    Sdw sdw;
    sdw.present = true;
    sdw.base = *base;
    sdw.bound = kStackSegmentWords;
    sdw.access = MakeStackSegment(ring);
    dseg->Store(kStackBaseSegno + ring, sdw);
    memory_->Write(*base + kStackNextFreeWord, kStackFrameStart);
  }

  processes_.push_back(std::move(process));
  return processes_.back().get();
}

std::optional<Segno> Supervisor::Initiate(Process* process, const std::string& name) {
  const RegisteredSegment* seg = registry_->Find(name);
  if (seg == nullptr) {
    return std::nullopt;
  }
  // "The name of the user associated with a process must match some entry
  // on the access control list of a segment before the supervisor will add
  // that segment to the virtual memory of the process."
  const auto access = seg->acl.Lookup(process->user);
  if (!access.has_value()) {
    return std::nullopt;
  }

  Sdw sdw;
  sdw.present = true;
  sdw.paged = seg->paged;
  sdw.base = seg->base;
  sdw.bound = seg->bound;
  sdw.access = *access;
  // The gate count reflects the segment's actual gate layout; the ACL
  // entry supplies flags and brackets.
  sdw.access.gate_count = seg->gate_count;
  if (ValidateSdw(sdw).has_value()) {
    return std::nullopt;
  }

  DescriptorSegment dseg(memory_, process->dbr);
  dseg.Store(seg->segno, sdw);
  if (process == current_) {
    cpu_->InvalidateSdw(seg->segno);
  }
  Charge(4);
  return seg->segno;
}

void Supervisor::InitiateAll(Process* process) {
  for (const RegisteredSegment& seg : registry_->segments()) {
    Initiate(process, seg.name);
  }
}

bool Supervisor::Start(Process* process, const std::string& segname, const std::string& entry,
                       Ring ring) {
  const auto segno = Initiate(process, segname);
  if (!segno.has_value()) {
    return false;
  }
  const auto addr = registry_->Resolve(segname, entry);
  if (!addr.has_value()) {
    return false;
  }

  RegisterFile regs;
  regs.dbr = process->dbr;
  regs.ipr = Ipr{ring, *segno, addr->wordno};
  for (PointerRegister& pr : regs.pr) {
    pr = PointerRegister{ring, 0, 0};
  }
  regs.pr[kPrStackBase] = PointerRegister{ring, kStackBaseSegno + ring, 0};
  regs.pr[kPrStack] = PointerRegister{ring, kStackBaseSegno + ring, kStackFrameStart};
  process->saved_regs = regs;
  process->state = ProcessState::kReady;
  ready_.push_back(process);
  return true;
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

bool Supervisor::DispatchNext() {
  while (!ready_.empty()) {
    Process* next = ready_.front();
    ready_.pop_front();
    if (!next->runnable()) {
      continue;
    }
    current_ = next;
    current_->state = ProcessState::kRunning;
    ++current_->dispatches;
    Charge(6);  // process-exchange bookkeeping
    cpu_->Rett(current_->saved_regs);
    cpu_->SetTimer(options_.quantum);
    return true;
  }
  current_ = nullptr;
  return false;
}

bool Supervisor::Idle() const {
  if (current_ != nullptr) {
    return false;
  }
  for (const auto& p : processes_) {
    if (p->runnable()) {
      return false;
    }
  }
  return true;
}

void Supervisor::KillCurrent(TrapCause cause, const SegAddr& pc) {
  if (current_ == nullptr) {
    return;
  }
  current_->state = ProcessState::kKilled;
  current_->kill_cause = cause;
  current_->kill_pc = pc;
  RINGS_LOG(kInfo) << "process " << current_->pid << " killed: " << TrapCauseName(cause)
                   << " at " << pc.segno << "|" << pc.wordno;
  current_ = nullptr;
}

void Supervisor::ResumeCurrent(const RegisterFile& regs) {
  if (current_ != nullptr) {
    current_->saved_regs = regs;
  }
  cpu_->Rett(regs);
}

// ---------------------------------------------------------------------------
// Trap dispatch
// ---------------------------------------------------------------------------

bool Supervisor::HandleTrap() {
  if (handling_trap_) {
    // Double fault: a trap was raised while the supervisor was already
    // servicing one. On real hardware this means the trap machinery
    // itself can no longer make progress; the recoverable response is to
    // kill the offending process, never the machine. The nested frame
    // must not dispatch — the outer HandleTrap frame is still on the
    // C++ stack and finishes the scheduling decision.
    const TrapState trap = cpu_->TakeTrap();
    ++cpu_->counters().double_faults;
    RINGS_LOG(kWarning) << "double fault (" << TrapCauseName(trap.cause)
                        << ") while servicing a trap; killing process";
    KillCurrent(TrapCause::kDoubleFault,
                SegAddr{trap.regs.ipr.segno, trap.regs.ipr.wordno});
    return current_ != nullptr;
  }
  handling_trap_ = true;
  const bool result = HandleTrapImpl();
  handling_trap_ = false;
  return result;
}

bool Supervisor::WatchdogTripped(const TrapState& trap) {
  if (options_.trap_storm_limit <= 0 || current_ == nullptr) {
    return false;
  }
  // External events (timer runout, I/O completions) can legitimately
  // arrive back-to-back without the process retiring an instruction;
  // only synchronous traps count toward the storm.
  if (trap.cause == TrapCause::kTimerRunout || trap.cause == TrapCause::kIoCompletion) {
    return false;
  }
  const uint64_t now = cpu_->counters().instructions;
  if (current_->trap_streak > 0 && now == current_->last_trap_instructions) {
    ++current_->trap_streak;
  } else {
    current_->trap_streak = 1;
  }
  current_->last_trap_instructions = now;
  if (current_->trap_streak < static_cast<uint64_t>(options_.trap_storm_limit)) {
    return false;
  }
  ++cpu_->counters().trap_storm_kills;
  RINGS_LOG(kWarning) << "trap storm: process " << current_->pid << " took "
                      << current_->trap_streak << " consecutive traps (last: "
                      << TrapCauseName(trap.cause) << ") without retiring an instruction";
  KillCurrent(TrapCause::kTrapStorm, SegAddr{trap.regs.ipr.segno, trap.regs.ipr.wordno});
  return true;
}

bool Supervisor::TryRecoverCachedSdw(const TrapState& trap) {
  if (current_ == nullptr) {
    return false;
  }
  // Compare the processor's cached descriptors for the segments involved
  // in the faulting reference against the authoritative descriptor
  // segment. A mismatch means the cached copy was damaged in flight (the
  // descriptor segment is supervisor-maintained and cannot legitimately
  // disagree): flush the stale entry and re-execute the disrupted
  // instruction, which will re-fetch the descriptor from memory.
  bool flushed = false;
  const Segno candidates[] = {trap.regs.ipr.segno, trap.tpr.segno};
  for (const Segno segno : candidates) {
    const auto cached = cpu_->sdw_cache().Peek(segno);
    if (!cached.has_value()) {
      continue;
    }
    const auto authoritative = cpu_->ReadSdw(segno);
    if (!authoritative.has_value()) {
      continue;
    }
    Word c0 = 0, c1 = 0, a0 = 0, a1 = 0;
    EncodeSdw(*cached, &c0, &c1);
    EncodeSdw(*authoritative, &a0, &a1);
    if (c0 == a0 && c1 == a1) {
      continue;
    }
    cpu_->InvalidateSdw(segno);
    flushed = true;
    RINGS_LOG(kWarning) << "recovered corrupted cached SDW for segment " << segno
                        << " (process " << current_->pid << ", "
                        << TrapCauseName(trap.cause) << ")";
  }
  if (!flushed) {
    return false;
  }
  ++cpu_->counters().sdw_recoveries;
  Charge(6);  // descriptor comparison and cache flush
  ResumeCurrent(trap.regs);
  return true;
}

bool Supervisor::HandleTrapImpl() {
  const TrapState trap = cpu_->TakeTrap();
  Charge(2);  // trap decode and vectoring bookkeeping

  if (WatchdogTripped(trap)) {
    return DispatchNext();
  }

  switch (trap.cause) {
    case TrapCause::kSupervisorService:
      DispatchService(trap);
      return current_ != nullptr || DispatchNext();

    case TrapCause::kMasterModeEntry:
      if (mme_handler_ && mme_handler_(trap)) {
        return current_ != nullptr || DispatchNext();
      }
      // Default MME protocol: code 0 = exit with code in A.
      if (trap.code == 0) {
        if (current_ != nullptr) {
          current_->exit_code = static_cast<int64_t>(trap.regs.a);
          current_->state = ProcessState::kExited;
          current_ = nullptr;
        }
        return DispatchNext();
      }
      KillCurrent(TrapCause::kMasterModeEntry,
                  SegAddr{trap.regs.ipr.segno, trap.regs.ipr.wordno});
      return DispatchNext();

    case TrapCause::kHalt:
      // HLT is privileged; reaching here means ring-0 code stopped the
      // process(or) deliberately.
      if (current_ != nullptr) {
        current_->exit_code = static_cast<int64_t>(trap.regs.a);
        current_->state = ProcessState::kExited;
        current_ = nullptr;
      }
      return DispatchNext();

    case TrapCause::kTimerRunout:
      if (current_ != nullptr) {
        current_->saved_regs = trap.regs;
        current_->state = ProcessState::kReady;
        ready_.push_back(current_);
        current_ = nullptr;
      }
      return DispatchNext();

    case TrapCause::kIoCompletion:
      // The device layer already recorded the completion; resume.
      ResumeCurrent(trap.regs);
      return true;

    case TrapCause::kMissingPage: {
      // Demand paging: supply a zero page and resume the disrupted
      // instruction — the trap/RETT machinery makes the fault invisible
      // to the guest, as the paper requires of paging.
      const SegAddr fault = trap.fault_addr;
      const auto sdw = cpu_->ReadSdw(fault.segno);
      if (current_ != nullptr && sdw.has_value() && sdw->present &&
          fault.wordno < sdw->bound) {
        if (!sdw->paged) {
          // Spurious: an unpaged present segment cannot legitimately page
          // fault. Absorb it — re-executing the disrupted instruction
          // succeeds against the intact descriptor.
          ++cpu_->counters().spurious_pages_ignored;
          Charge(2);
          ResumeCurrent(trap.regs);
          return true;
        }
        const Ptw ptw = DecodePtw(memory_->Read(sdw->base + (fault.wordno >> kPageShift)));
        if (ptw.present) {
          // Spurious: the page is already resident. Installing a fresh
          // zero page here would discard live data, so just resume.
          ++cpu_->counters().spurious_pages_ignored;
          Charge(2);
          ResumeCurrent(trap.regs);
          return true;
        }
        if (InstallZeroPage(memory_, sdw->base, fault.wordno >> kPageShift).has_value()) {
          // The install stored the PTW behind the processor's back; retire
          // any translation memoized from that word (there should be none
          // — absent pages are never cached — but a snoop is exact and
          // keeps the invariant local).
          cpu_->NotePtwStore(sdw->base + (fault.wordno >> kPageShift));
          ++cpu_->counters().pages_supplied;
          Charge(8);
          ResumeCurrent(trap.regs);
          return true;
        }
      }
      KillCurrent(TrapCause::kMissingPage, SegAddr{trap.regs.ipr.segno, trap.regs.ipr.wordno});
      return DispatchNext();
    }

    case TrapCause::kLinkFault:
      SnapLink(trap);
      return current_ != nullptr || DispatchNext();

    case TrapCause::kUpwardCall:
      EmulateUpwardCall(trap);
      return current_ != nullptr || DispatchNext();

    case TrapCause::kDownwardReturn:
      EmulateDownwardReturn(trap);
      return current_ != nullptr || DispatchNext();

    case TrapCause::kMachineFault:
      // A physical-store fault: a reference escaped the segment-level
      // checks, which means the descriptor that produced the absolute
      // address was corrupt. The process is killed; the machine survives.
      ++cpu_->counters().machine_faults;
      RINGS_LOG(kWarning) << "machine fault (absolute address " << trap.code
                          << ") in process " << (current_ != nullptr ? current_->pid : 0);
      KillCurrent(TrapCause::kMachineFault,
                  SegAddr{trap.regs.ipr.segno, trap.regs.ipr.wordno});
      return DispatchNext();

    default:
      // Before declaring an access violation fatal, check whether it was
      // manufactured by a damaged cached descriptor; if so, flush and
      // retry instead of killing the process.
      if (TryRecoverCachedSdw(trap)) {
        return true;
      }
      KillCurrent(trap.cause, SegAddr{trap.regs.ipr.segno, trap.regs.ipr.wordno});
      return DispatchNext();
  }
}

// ---------------------------------------------------------------------------
// Services
// ---------------------------------------------------------------------------

void Supervisor::DispatchService(const TrapState& trap) {
  RegisterFile regs = trap.regs;
  Charge(3);
  switch (trap.code) {
    case kSvcExit:
      SvcExit(trap);
      return;
    case kSvcTtyWrite:
      SvcTtyWrite(trap, &regs);
      break;
    case kSvcTtyRead:
      if (!SvcTtyRead(trap, &regs)) {
        return;  // blocked: the process re-issues the SVC when awakened
      }
      break;
    case kSvcGetRing:
      // The hardware left the ring of the gate's caller in the return
      // pointer: "the processor leave[s] in a program accessible register
      // the number of the ring in which execution was occurring before the
      // downward call was made."
      regs.a = trap.regs.pr[kPrReturn].ring;
      break;
    case kSvcSetAcl:
      SvcSetAcl(trap, &regs);
      break;
    case kSvcRegisterUser:
      if (current_ != nullptr) {
        registered_users_.push_back(current_->user);
      }
      regs.a = 0;
      break;
    case kSvcCycleCount:
      regs.a = cpu_->cycles();
      break;
    case kSvcMakeSegment:
      SvcMakeSegment(trap, &regs);
      break;
    default:
      KillCurrent(TrapCause::kSupervisorService,
                  SegAddr{trap.regs.ipr.segno, trap.regs.ipr.wordno});
      return;
  }
  ResumeCurrent(regs);
}

void Supervisor::SvcExit(const TrapState& trap) {
  if (current_ != nullptr) {
    current_->exit_code = static_cast<int64_t>(trap.regs.a);
    current_->state = ProcessState::kExited;
    current_ = nullptr;
  }
}

bool Supervisor::ReadArgList(const PointerRegister& ap, std::vector<ArgRef>* args,
                             TrapCause* fault) {
  args->clear();
  if (ap.segno == 0 && ap.wordno == 0) {
    return true;  // no argument list (ABI convention)
  }
  Word count_word = 0;
  // Every reference is validated at the pointer's ring, exactly as the
  // hardware would validate `lda pr1|0`: the callee "can validate access
  // when referencing arguments as though execution were occurring in the
  // (higher numbered) ring of the calling procedure."
  if (TrapCause c = cpu_->SupervisorRead(ap.segno, ap.wordno + kArgListCountWord, ap.ring,
                                         &count_word);
      c != TrapCause::kNone) {
    *fault = c;
    return false;
  }
  const uint64_t count = count_word;
  if (count > kMaxArgs) {
    *fault = TrapCause::kBoundsViolation;
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    Word ptr_word = 0;
    Word len_word = 0;
    if (TrapCause c = cpu_->SupervisorRead(ap.segno, ap.wordno + 1 + i, ap.ring, &ptr_word);
        c != TrapCause::kNone) {
      *fault = c;
      return false;
    }
    if (TrapCause c =
            cpu_->SupervisorRead(ap.segno, ap.wordno + 1 + count + i, ap.ring, &len_word);
        c != TrapCause::kNone) {
      *fault = c;
      return false;
    }
    const IndirectWord iw = DecodeIndirectWord(ptr_word);
    ArgRef ref;
    ref.addr = SegAddr{iw.segno, iw.wordno};
    // "The RING field of an argument list indirect word will specify the
    // ring which originally provided the argument. If this value is higher
    // than the value of PRa.RING, then the indirect word ring number will
    // become the effective ring."
    ref.effective_ring = MaxRing(ap.ring, iw.ring);
    ref.length = static_cast<uint32_t>(len_word);
    args->push_back(ref);
  }
  Charge(2 + 2 * count);
  return true;
}

void Supervisor::SvcTtyWrite(const TrapState& trap, RegisterFile* regs) {
  std::vector<ArgRef> args;
  TrapCause fault = TrapCause::kNone;
  if (!ReadArgList(trap.regs.pr[kPrArgs], &args, &fault) || args.empty()) {
    regs->a = static_cast<Word>(-1);
    return;
  }
  const ArgRef& buffer = args[0];
  std::string written;
  for (uint32_t i = 0; i < buffer.length; ++i) {
    Word w = 0;
    if (TrapCause c = cpu_->SupervisorRead(buffer.addr.segno, buffer.addr.wordno + i,
                                           buffer.effective_ring, &w);
        c != TrapCause::kNone) {
      regs->a = static_cast<Word>(-1);
      return;
    }
    written.push_back(static_cast<char>(w & 0xFF));
  }
  tty_output_ += written;
  Charge(2 + buffer.length);
  if (start_io_) {
    start_io_(0, buffer.length);
  }
  regs->a = buffer.length;
}

bool Supervisor::SvcTtyRead(const TrapState& trap, RegisterFile* regs) {
  std::vector<ArgRef> args;
  TrapCause fault = TrapCause::kNone;
  if (!ReadArgList(trap.regs.pr[kPrArgs], &args, &fault) || args.empty()) {
    regs->a = static_cast<Word>(-1);
    return true;
  }
  if (tty_input_.empty() && current_ != nullptr) {
    // Nothing to read: block the process. The saved execution point is
    // moved back onto the SVC instruction, so the awakened process simply
    // re-issues the request.
    RegisterFile blocked = trap.regs;
    blocked.ipr.wordno -= 1;
    current_->saved_regs = blocked;
    current_->state = ProcessState::kBlocked;
    current_ = nullptr;
    DispatchNext();
    return false;
  }
  const ArgRef& buffer = args[0];
  uint32_t n = 0;
  while (n < buffer.length && !tty_input_.empty()) {
    if (TrapCause c =
            cpu_->SupervisorWrite(buffer.addr.segno, buffer.addr.wordno + n,
                                  buffer.effective_ring, static_cast<Word>(tty_input_.front()));
        c != TrapCause::kNone) {
      regs->a = static_cast<Word>(-1);
      return true;
    }
    tty_input_.erase(tty_input_.begin());
    ++n;
  }
  Charge(2 + n);
  regs->a = n;
  return true;
}

void Supervisor::NotifyTtyInput() {
  for (const auto& process : processes_) {
    if (process->state == ProcessState::kBlocked) {
      process->state = ProcessState::kReady;
      ready_.push_back(process.get());
    }
  }
}

void Supervisor::SvcSetAcl(const TrapState& trap, RegisterFile* regs) {
  const Ring caller_ring = trap.regs.pr[kPrReturn].ring;
  const Segno segno = static_cast<Segno>(trap.regs.a & kMaxSegno);
  const Word spec = trap.regs.q;

  SegmentAccess access;
  access.flags.read = ExtractBits(spec, 11, 1) != 0;
  access.flags.write = ExtractBits(spec, 10, 1) != 0;
  access.flags.execute = ExtractBits(spec, 9, 1) != 0;
  access.brackets.r1 = static_cast<Ring>(ExtractBits(spec, 6, 3));
  access.brackets.r2 = static_cast<Ring>(ExtractBits(spec, 3, 3));
  access.brackets.r3 = static_cast<Ring>(ExtractBits(spec, 0, 3));

  // "A fundamental constraint enforced by this software facility is that a
  // program executing in ring n cannot specify R1, R2, or R3 values of
  // less than n in an access control list entry of any segment."
  if (!access.brackets.IsWellFormed() || access.brackets.r1 < caller_ring ||
      access.brackets.r2 < caller_ring || access.brackets.r3 < caller_ring) {
    regs->a = static_cast<Word>(-1);
    return;
  }

  RegisteredSegment* seg = registry_->FindMutableBySegno(segno);
  if (seg == nullptr || current_ == nullptr) {
    regs->a = static_cast<Word>(-1);
    return;
  }
  access.gate_count = seg->gate_count;
  seg->acl.Set(current_->user, access);

  // Make the change immediately effective in the current virtual memory:
  // rewrite the SDW if the segment is initiated.
  DescriptorSegment dseg(memory_, current_->dbr);
  if (auto sdw = dseg.Fetch(segno); sdw.has_value() && sdw->present) {
    sdw->access = access;
    dseg.Store(segno, *sdw);
    cpu_->InvalidateSdw(segno);
  }
  Charge(6);
  regs->a = 0;
}

void Supervisor::SnapLink(const TrapState& trap) {
  const SegAddr at = trap.fault_addr;
  const SegAddr pc{trap.regs.ipr.segno, trap.regs.ipr.wordno};
  Word raw = 0;
  if (current_ == nullptr ||
      cpu_->SupervisorReadRaw(at.segno, at.wordno, &raw) != TrapCause::kNone) {
    KillCurrent(TrapCause::kLinkFault, pc);
    return;
  }
  const IndirectWord fault_word = DecodeIndirectWord(raw);
  RegisteredSegment* owner = registry_->FindMutableBySegno(fault_word.segno);
  if (!fault_word.fault || owner == nullptr || fault_word.wordno >= owner->links.size()) {
    KillCurrent(TrapCause::kLinkFault, pc);
    return;
  }
  const LinkTarget& link = owner->links[fault_word.wordno];
  const RegisteredSegment* target = registry_->Find(link.segment);
  if (target == nullptr) {
    KillCurrent(TrapCause::kLinkFault, pc);
    return;
  }
  int64_t wordno = link.offset;
  if (!link.symbol.empty()) {
    const auto sym = target->symbols.find(link.symbol);
    if (sym == target->symbols.end()) {
      KillCurrent(TrapCause::kLinkFault, pc);
      return;
    }
    wordno += sym->second;
  }
  if (wordno < 0 || wordno > kMaxWordno) {
    KillCurrent(TrapCause::kLinkFault, pc);
    return;
  }
  // Snap: overwrite the link word in place. The storage is shared, so the
  // snap is visible to every process (a documented simplification of the
  // per-process Multics linkage sections).
  const IndirectWord snapped{link.ring, link.indirect, target->segno,
                             static_cast<Wordno>(wordno)};
  if (cpu_->SupervisorWriteRaw(at.segno, at.wordno, EncodeIndirectWord(snapped)) !=
      TrapCause::kNone) {
    KillCurrent(TrapCause::kLinkFault, pc);
    return;
  }
  ++cpu_->counters().links_snapped;
  Charge(12);
  // Resume the disrupted instruction, which now follows the snapped word.
  ResumeCurrent(trap.regs);
}

void Supervisor::SvcMakeSegment(const TrapState& trap, RegisterFile* regs) {
  const Ring caller_ring = trap.regs.pr[kPrReturn].ring;
  const uint64_t words = trap.regs.a;
  const Word spec = trap.regs.q;

  SegmentAccess access;
  access.flags.read = ExtractBits(spec, 11, 1) != 0;
  access.flags.write = ExtractBits(spec, 10, 1) != 0;
  access.flags.execute = ExtractBits(spec, 9, 1) != 0;
  access.brackets.r1 = static_cast<Ring>(ExtractBits(spec, 6, 3));
  access.brackets.r2 = static_cast<Ring>(ExtractBits(spec, 3, 3));
  access.brackets.r3 = static_cast<Ring>(ExtractBits(spec, 0, 3));

  // Same ring constraint as kSvcSetAcl: a program in ring n may not mint
  // access reaching below ring n.
  if (current_ == nullptr || words == 0 || words > kMaxUserSegmentWords ||
      !access.brackets.IsWellFormed() || access.brackets.r1 < caller_ring ||
      access.brackets.r2 < caller_ring || access.brackets.r3 < caller_ring) {
    regs->a = static_cast<Word>(-1);
    return;
  }

  const std::string name =
      StrFormat("proc%d_seg%d", current_->pid, ++anonymous_segments_);
  const auto segno = registry_->CreateSegment(
      name, words, AccessControlList::ForUser(current_->user, access));
  if (!segno.has_value()) {
    regs->a = static_cast<Word>(-1);
    return;
  }
  if (!Initiate(current_, name).has_value()) {
    regs->a = static_cast<Word>(-1);
    return;
  }
  Charge(8);
  regs->a = *segno;
}

// ---------------------------------------------------------------------------
// Upward call / downward return emulation
// ---------------------------------------------------------------------------

void Supervisor::EmulateUpwardCall(const TrapState& trap) {
  if (current_ == nullptr) {
    return;
  }
  const SegAddr pc{trap.regs.ipr.segno, trap.regs.ipr.wordno};
  const auto sdw = cpu_->ReadSdw(trap.tpr.segno);
  if (!sdw.has_value() || !sdw->present || trap.tpr.wordno >= sdw->bound) {
    KillCurrent(TrapCause::kBoundsViolation, pc);
    return;
  }
  // "When the call occurs, the ring of execution will change to m", the
  // bottom of the target's execute bracket.
  const Ring callee_ring = sdw->access.brackets.r1;
  const Ring caller_ring = trap.regs.ipr.ring;

  ReturnGate gate;
  gate.expected_target = SegAddr{trap.regs.ipr.segno, trap.regs.ipr.wordno + 1};
  gate.caller_ring = caller_ring;
  gate.callee_ring = callee_ring;
  gate.saved_sp = trap.regs.pr[kPrStack];
  gate.saved_sb = trap.regs.pr[kPrStackBase];
  gate.saved_ap = trap.regs.pr[kPrArgs];

  RegisterFile regs = trap.regs;
  Charge(10);

  // Argument copy-in (the paper's third solution to the upward-argument
  // problem: "copying arguments into segments that are accessible in the
  // called ring, and then copying them back to their original locations
  // on return").
  std::vector<ArgRef> args;
  TrapCause fault = TrapCause::kNone;
  if (!ReadArgList(trap.regs.pr[kPrArgs], &args, &fault)) {
    KillCurrent(fault, pc);
    return;
  }
  if (!args.empty()) {
    uint64_t data_words = 0;
    for (const ArgRef& a : args) {
      data_words += a.length;
    }
    const uint64_t total = 1 + 2 * args.size() + data_words;
    const auto area = AllocateStackArea(callee_ring, total);
    if (!area.has_value()) {
      KillCurrent(TrapCause::kBoundsViolation, pc);
      return;
    }
    const Segno stack_segno = kStackBaseSegno + callee_ring;
    Wordno cursor = *area + 1 + static_cast<Wordno>(2 * args.size());
    cpu_->SupervisorWriteRaw(stack_segno, *area, args.size());
    for (size_t i = 0; i < args.size(); ++i) {
      const ArgRef& a = args[i];
      // New argument-list pointer addressing the transfer copy, ring field
      // = the callee ring (accessible there).
      const IndirectWord iw{callee_ring, false, stack_segno, cursor};
      cpu_->SupervisorWriteRaw(stack_segno, *area + 1 + i, EncodeIndirectWord(iw));
      cpu_->SupervisorWriteRaw(stack_segno, *area + 1 + args.size() + i, a.length);
      for (uint32_t j = 0; j < a.length; ++j) {
        Word w = 0;
        if (TrapCause c =
                cpu_->SupervisorRead(a.addr.segno, a.addr.wordno + j, a.effective_ring, &w);
            c != TrapCause::kNone) {
          // The caller specified an argument it cannot itself reference.
          KillCurrent(c, pc);
          return;
        }
        cpu_->SupervisorWriteRaw(stack_segno, cursor + j, w);
      }
      gate.copied_args.push_back(ReturnGate::CopiedArg{
          a.addr, SegAddr{stack_segno, cursor}, a.length, a.effective_ring});
      cursor += a.length;
      cpu_->counters().argument_words_copied += a.length;
    }
    gate.transfer_words = total;
    Charge(4 + 2 * args.size() + data_words);
    regs.pr[kPrArgs] = PointerRegister{callee_ring, stack_segno, *area};
  }

  // Entering a higher numbered ring: raise every PR ring to at least the
  // callee ring (the same rule the hardware applies on an upward RETURN).
  for (PointerRegister& pr : regs.pr) {
    pr.ring = MaxRing(pr.ring, callee_ring);
  }
  regs.pr[kPrStackBase] =
      PointerRegister{callee_ring, kStackBaseSegno + callee_ring, 0};
  regs.pr[kPrReturn] =
      PointerRegister{callee_ring, gate.expected_target.segno, gate.expected_target.wordno};
  regs.ipr = Ipr{callee_ring, trap.tpr.segno, trap.tpr.wordno};

  current_->return_gates.push_back(std::move(gate));
  ++cpu_->counters().upward_calls_emulated;
  ResumeCurrent(regs);
}

void Supervisor::EmulateDownwardReturn(const TrapState& trap) {
  if (current_ == nullptr) {
    return;
  }
  const SegAddr pc{trap.regs.ipr.segno, trap.regs.ipr.wordno};
  if (current_->return_gates.empty()) {
    // No outstanding upward call: a genuine attempt to lower the ring.
    KillCurrent(TrapCause::kDownwardReturn, pc);
    return;
  }
  ReturnGate gate = current_->return_gates.back();
  const SegAddr target{trap.tpr.segno, trap.tpr.wordno};

  // Only the gate at the top of the stack can be used, and only for its
  // recorded target.
  if (target != gate.expected_target || trap.regs.ipr.ring < gate.callee_ring) {
    KillCurrent(TrapCause::kDownwardReturn, pc);
    return;
  }
  // "The same convention can be used without violating the protection
  // provided by the lower ring if the intervening software verifies the
  // restored stack pointer register value when performing the downward
  // return." The address must match exactly; the ring field may only have
  // been raised (the emulated upward entry raised every PR ring to the
  // callee ring, as hardware does on upward RETURN).
  const PointerRegister& sp = trap.regs.pr[kPrStack];
  if (sp.segno != gate.saved_sp.segno || sp.wordno != gate.saved_sp.wordno ||
      sp.ring < gate.saved_sp.ring) {
    KillCurrent(TrapCause::kDownwardReturn, pc);
    return;
  }
  current_->return_gates.pop_back();

  // Copy arguments back to their original locations. Writes are validated
  // at the effective ring recorded on the way in; arguments the caller
  // could only read (e.g. constants) are not copied back.
  for (const ReturnGate::CopiedArg& arg : gate.copied_args) {
    bool writable = true;
    for (uint32_t j = 0; j < arg.length && writable; ++j) {
      Word w = 0;
      cpu_->SupervisorReadRaw(arg.transfer.segno, arg.transfer.wordno + j, &w);
      if (cpu_->SupervisorWrite(arg.original.segno, arg.original.wordno + j, arg.effective_ring,
                                w) != TrapCause::kNone) {
        writable = false;
      }
    }
    cpu_->counters().argument_words_copied += arg.length;
  }
  if (gate.transfer_words > 0) {
    ReleaseStackArea(gate.callee_ring, gate.transfer_words);
  }

  RegisterFile regs = trap.regs;
  regs.ipr = Ipr{gate.caller_ring, target.segno, target.wordno};
  regs.pr[kPrStackBase] = gate.saved_sb;
  regs.pr[kPrArgs] = gate.saved_ap;
  regs.pr[kPrStack] = gate.saved_sp;
  Charge(10 + 2 * gate.copied_args.size());
  ++cpu_->counters().downward_returns_emulated;
  ResumeCurrent(regs);
}

std::optional<Wordno> Supervisor::AllocateStackArea(Ring ring, uint64_t words) {
  const Segno segno = kStackBaseSegno + ring;
  Word next_free = 0;
  if (cpu_->SupervisorReadRaw(segno, kStackNextFreeWord, &next_free) != TrapCause::kNone) {
    return std::nullopt;
  }
  if (next_free + words > kStackSegmentWords) {
    return std::nullopt;
  }
  cpu_->SupervisorWriteRaw(segno, kStackNextFreeWord, next_free + words);
  return static_cast<Wordno>(next_free);
}

void Supervisor::ReleaseStackArea(Ring ring, uint64_t words) {
  const Segno segno = kStackBaseSegno + ring;
  Word next_free = 0;
  cpu_->SupervisorReadRaw(segno, kStackNextFreeWord, &next_free);
  if (next_free >= words) {
    cpu_->SupervisorWriteRaw(segno, kStackNextFreeWord, next_free - words);
  }
}

// ---------------------------------------------------------------------------
// State capture and apply
// ---------------------------------------------------------------------------

std::optional<int> Supervisor::State::UnknownPid() const {
  const auto known = [this](int pid) {
    for (const Process& p : processes) {
      if (p.pid == pid) {
        return true;
      }
    }
    return false;
  };
  for (const int pid : ready_pids) {
    if (!known(pid)) {
      return pid;
    }
  }
  if (current_pid != 0 && !known(current_pid)) {
    return current_pid;
  }
  return std::nullopt;
}

Supervisor::State Supervisor::CaptureState() const {
  State state;
  state.next_pid = next_pid_;
  state.anonymous_segments = anonymous_segments_;
  state.handling_trap = handling_trap_;
  state.current_pid = current_ != nullptr ? current_->pid : 0;
  for (const Process* p : ready_) {
    state.ready_pids.push_back(p->pid);
  }
  state.tty_output = tty_output_;
  state.tty_input = tty_input_;
  state.registered_users = registered_users_;
  state.processes.reserve(processes_.size());
  for (const auto& p : processes_) {
    state.processes.push_back(*p);
  }
  return state;
}

void Supervisor::ApplyState(State state) {
  next_pid_ = state.next_pid;
  anonymous_segments_ = state.anonymous_segments;
  handling_trap_ = state.handling_trap;
  tty_output_ = std::move(state.tty_output);
  tty_input_ = std::move(state.tty_input);
  registered_users_ = std::move(state.registered_users);
  processes_.clear();
  for (Process& p : state.processes) {
    processes_.push_back(std::make_unique<Process>(std::move(p)));
  }
  const auto find = [this](int pid) -> Process* {
    for (const auto& p : processes_) {
      if (p->pid == pid) {
        return p.get();
      }
    }
    return nullptr;
  };
  ready_.clear();
  for (const int pid : state.ready_pids) {
    ready_.push_back(find(pid));
  }
  current_ = state.current_pid != 0 ? find(state.current_pid) : nullptr;
}

}  // namespace rings

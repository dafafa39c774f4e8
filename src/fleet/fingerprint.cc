#include "src/fleet/fingerprint.h"

#include <algorithm>
#include <utility>

#include "src/base/strings.h"

namespace rings {

namespace {

// The state visitor's Io for the register file (src/sys/machine_state.h):
// every field folds in widened to 64 bits, in image field order.
struct RegisterMixer {
  FingerprintBuilder* fp;

  template <class T>
  void U32(const T& v) {
    fp->Mix(static_cast<uint64_t>(v));
  }
  template <class T>
  void U64(const T& v) {
    fp->Mix(static_cast<uint64_t>(v));
  }
  void RingNo(Ring ring, const char*) { fp->Mix(static_cast<uint64_t>(ring)); }
};

void MixCounters(FingerprintBuilder* fp, const Counters& counters) {
  Counters::ForEachField(
      [fp, &counters](const char*, uint64_t Counters::* member, bool host_only) {
        if (!host_only) {
          fp->Mix(counters.*member);
        }
      });
  for (const uint64_t n : counters.traps) {
    fp->Mix(n);
  }
}

}  // namespace

std::string ProcessStatusLine(const Process& process) {
  switch (process.state) {
    case ProcessState::kExited:
      return StrFormat("pid=%d user=%s state=exited code=%lld", process.pid,
                       process.user.c_str(), static_cast<long long>(process.exit_code));
    case ProcessState::kKilled:
      return StrFormat("pid=%d user=%s state=killed cause=%s at %u|%u", process.pid,
                       process.user.c_str(),
                       std::string(TrapCauseName(process.kill_cause)).c_str(),
                       process.kill_pc.segno, process.kill_pc.wordno);
    default:
      return StrFormat("pid=%d user=%s state=%d", process.pid, process.user.c_str(),
                       static_cast<int>(process.state));
  }
}

ExitStatus MachineExitStatus(const Machine& machine) {
  ExitStatus status;
  for (const auto& process : machine.supervisor().processes()) {
    if (process->state == ProcessState::kExited) {
      status.code = std::max(status.code, static_cast<int>(process->exit_code & 0xFF));
    } else {
      status.code = 111;
      if (status.failure.empty()) {
        status.failure = ProcessStatusLine(*process);
      }
    }
  }
  return status;
}

RetiredMachine RetireMachine(const Machine* machine, bool completed, std::string failure) {
  RetiredMachine out;
  out.completed = completed;
  out.failure = std::move(failure);
  if (machine != nullptr) {
    out.fingerprint = FingerprintMachine(*machine);
    out.cycles = machine->cpu().cycles();
    out.instructions = machine->cpu().counters().instructions;
    out.tty = machine->TtyOutput();
    ExitStatus status = MachineExitStatus(*machine);
    out.exit_code = status.code;
    if (!status.failure.empty()) {
      out.completed = false;
      if (out.failure.empty()) {
        out.failure = std::move(status.failure);
      }
    }
  }
  if (!out.completed && out.exit_code == 0) {
    out.exit_code = 111;
  }
  return out;
}

uint64_t FingerprintCounters(const Counters& counters) {
  FingerprintBuilder fp;
  MixCounters(&fp, counters);
  return fp.digest();
}

uint64_t FingerprintMachine(const Machine& machine) {
  FingerprintBuilder fp;
  fp.Mix(machine.cpu().cycles());
  RegisterFile regs = machine.cpu().regs();
  RegisterMixer mixer{&fp};
  Visit(mixer, regs);
  MixCounters(&fp, machine.cpu().counters());
  if (machine.trace().enabled()) {
    for (const TraceEvent& e : machine.trace().events()) {
      if (e.kind == EventKind::kTrap || e.kind == EventKind::kRingSwitch) {
        fp.Mix(e.ToString());
      }
    }
  }
  for (const auto& process : machine.supervisor().processes()) {
    fp.Mix(ProcessStatusLine(*process));
  }
  fp.Mix(machine.TtyOutput());
  return fp.digest();
}

}  // namespace rings

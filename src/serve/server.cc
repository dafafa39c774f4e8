#include "src/serve/server.h"

#include <algorithm>
#include <exception>

#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/kasm/assembler.h"
#include "src/snapshot/snapshot.h"
#include "src/sys/manifest.h"

namespace rings {

namespace {

using Clock = std::chrono::steady_clock;

// Submission identity for the golden-image registry: FNV-1a over the full
// source text. Unlike ProgramIdentity this covers the `;;` manifest too —
// two sources assembling to the same program but with different ACLs,
// start points, or tty input must not share a golden machine.
uint64_t SourceIdentity(const std::string& source) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : source) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

ServeConfig Normalized(ServeConfig config) {
  config.threads = std::max(config.threads, 1);
  config.slice_cycles = std::max<uint64_t>(config.slice_cycles, 1);
  return config;
}

}  // namespace

std::string_view ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kQueued:
      return "queued";
    case ServeStatus::kRunning:
      return "running";
    case ServeStatus::kCompleted:
      return "completed";
    case ServeStatus::kFailed:
      return "failed";
    case ServeStatus::kBudgetExceeded:
      return "budget-exceeded";
    case ServeStatus::kRejected:
      return "rejected";
  }
  return "?";
}

std::string Completion::ToString() const {
  std::string out = StrFormat(
      "submission %llu tenant '%s': %s exit=%d cycles=%llu fingerprint=%016llx",
      static_cast<unsigned long long>(id), tenant.c_str(),
      std::string(ServeStatusName(status)).c_str(), exit_code,
      static_cast<unsigned long long>(cycles), static_cast<unsigned long long>(fingerprint));
  if (!error.empty()) {
    out += StrFormat(" (%s)", error.c_str());
  }
  return out;
}

Server::Server(ServeConfig config)
    : config_(Normalized(config)),
      pool_(static_cast<size_t>(config_.threads), [this](size_t id) { return RunSlice(id); }) {}

Server::~Server() { Shutdown(); }

void Server::SetTenantBudget(const std::string& tenant, TenantBudget budget) {
  const std::lock_guard<std::mutex> lock(mu_);
  tenants_[tenant].budget = budget;
}

uint64_t Server::Submit(Submission submission) {
  std::unique_ptr<Task> task = std::make_unique<Task>();
  task->submission = std::move(submission);
  task->submitted_at = Clock::now();
  task->max_cycles =
      task->submission.max_cycles > 0 ? task->submission.max_cycles : config_.default_max_cycles;
  task->completion.tenant = task->submission.tenant;

  std::string reject;
  uint64_t memory_words = config_.machine_memory_words;
  const bool has_source = !task->submission.source.empty();
  const bool has_image = !task->submission.image.empty();
  if (has_source == has_image) {
    reject = "submission must carry exactly one of kasm source or snapshot image";
  } else if (has_image) {
    std::string error;
    SnapshotMeta meta;
    if (!VerifySnapshot(task->submission.image, &error) ||
        !PeekSnapshotMeta(task->submission.image, &meta, &error)) {
      reject = StrFormat("snapshot image invalid: %s", error.c_str());
    } else {
      memory_words = meta.memory_words;
    }
  }

  Task* raw = task.get();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    raw->id = next_id_++;
    raw->completion.id = raw->id;
    if (!accepting_ && reject.empty()) {
      reject = "server is shutting down";
    }
    if (reject.empty()) {
      const auto it = tenants_.find(raw->submission.tenant);
      if (it != tenants_.end() && memory_words > it->second.budget.max_memory_words) {
        reject = StrFormat("tenant memory budget: machine wants %llu words, budget is %llu",
                           static_cast<unsigned long long>(memory_words),
                           static_cast<unsigned long long>(it->second.budget.max_memory_words));
      }
    }
    tasks_[raw->id] = std::move(task);
    if (reject.empty()) {
      // Pushed under mu_, so Shutdown's Close sees every accepted task.
      pool_.Push(raw->id);
      return raw->id;
    }
    raw->completion.status = ServeStatus::kRejected;
    raw->completion.error = std::move(reject);
    raw->done = true;
  }
  done_cv_.notify_all();
  return raw->id;
}

Completion Server::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tasks_.end();
  done_cv_.wait(lock, [this, id, &it] {
    it = tasks_.find(id);
    return it != tasks_.end() && it->second->done;
  });
  // The completion is delivered once; the task (its source or image bytes
  // and tty output) goes with it, so a long-running daemon holds only what
  // is still queued, running, or not yet collected.
  Completion completion = std::move(it->second->completion);
  tasks_.erase(it);
  return completion;
}

void Server::Shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
  }
  pool_.Close();
}

uint64_t Server::TenantRemaining(const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return UINT64_MAX;
  }
  const Tenant& t = it->second;
  return t.consumed_cycles >= t.budget.max_cycles_total
             ? 0
             : t.budget.max_cycles_total - t.consumed_cycles;
}

void Server::ChargeTenant(const std::string& tenant, uint64_t cycles) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) {
    it->second.consumed_cycles += cycles;
  }
}

bool Server::Materialize(Task* task) {
  const Submission& sub = task->submission;
  std::unique_ptr<Machine> machine;
  if (!sub.image.empty()) {
    std::string error;
    SnapshotMeta meta;
    if (!PeekSnapshotMeta(sub.image, &meta, &error)) {
      Retire(task, ServeStatus::kFailed, std::move(error));
      return false;
    }
    machine = std::make_unique<Machine>(RestoreConfig(meta, MachineConfig{}));
    if (!machine->ok() || !RestoreSnapshot(sub.image, machine.get(), &error)) {
      Retire(task, ServeStatus::kFailed,
             machine->ok() ? std::move(error) : "machine construction failed");
      return false;
    }
  } else {
    // Golden-image path: the first submission of a distinct source pays
    // assemble+boot+load under the registry lock; every later one clones.
    const uint64_t identity = SourceIdentity(sub.source);
    std::string build_error;
    const auto build = [this, &sub, &build_error]() -> std::unique_ptr<Machine> {
      const AssembleResult assembled = Assemble(sub.source);
      if (!assembled.ok) {
        build_error = assembled.error.ToString();
        return nullptr;
      }
      const Manifest manifest = ParseManifest(sub.source);
      if (!manifest.ok()) {
        build_error = manifest.error;
        return nullptr;
      }
      MachineConfig config;
      config.memory_words = config_.machine_memory_words;
      auto golden_machine = std::make_unique<Machine>(config);
      if (!golden_machine->ok()) {
        build_error = "machine construction failed";
        return nullptr;
      }
      std::string error;
      if (!InstantiateGuest(assembled.program, manifest, golden_machine.get(), &error)) {
        build_error = std::move(error);
        return nullptr;
      }
      return golden_machine;
    };
    const std::shared_ptr<const GoldenImage> golden =
        GoldenImageRegistry::Instance().Acquire(identity, build);
    if (golden == nullptr) {
      Retire(task, ServeStatus::kFailed,
             build_error.empty() ? "golden image construction failed" : std::move(build_error));
      return false;
    }
    machine = golden->Spawn();
    if (machine == nullptr) {
      Retire(task, ServeStatus::kFailed, "golden image clone failed");
      return false;
    }
  }
  if (!sub.stdin_text.empty()) {
    machine->TtyFeedInput(sub.stdin_text);
  }
  task->machine = std::move(machine);
  return true;
}

void Server::Retire(Task* task, ServeStatus status, std::string error) {
  Completion& completion = task->completion;
  RetiredMachine retired =
      RetireMachine(task->machine.get(), status == ServeStatus::kCompleted, std::move(error));
  completion.status =
      status == ServeStatus::kCompleted && !retired.completed ? ServeStatus::kFailed : status;
  completion.error = std::move(retired.failure);
  completion.exit_code = retired.exit_code;
  completion.fingerprint = retired.fingerprint;
  completion.cycles = retired.cycles;
  completion.instructions = retired.instructions;
  completion.tty = std::move(retired.tty);
  completion.turnaround_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - task->submitted_at)
          .count());
  task->machine.reset();  // bound peak memory: one retired machine at a time
  {
    const std::lock_guard<std::mutex> lock(mu_);
    task->done = true;
  }
  done_cv_.notify_all();
}

bool Server::RunSlice(uint64_t id) {
  Task* task = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    task = tasks_.at(id).get();
  }
#if defined(__cpp_exceptions)
  try {
#endif
    if (task->machine == nullptr) {
      return !Materialize(task);  // materialization was this slice's work
    }
    const uint64_t tenant_remaining = TenantRemaining(task->submission.tenant);
    if (tenant_remaining == 0) {
      Retire(task, ServeStatus::kBudgetExceeded, "tenant cycle budget exhausted");
      return true;
    }
    const uint64_t remaining = task->max_cycles - task->consumed_cycles;
    const uint64_t slice = std::min({config_.slice_cycles, remaining, tenant_remaining});
    const RunResult run = task->machine->Run(slice);
    task->consumed_cycles += run.cycles;
    ChargeTenant(task->submission.tenant, run.cycles);
    if (run.idle) {
      Retire(task, ServeStatus::kCompleted, "");
      return true;
    }
    if (task->consumed_cycles >= task->max_cycles) {
      Retire(task, ServeStatus::kBudgetExceeded, "cycle budget exhausted");
      return true;
    }
    if (TenantRemaining(task->submission.tenant) == 0) {
      Retire(task, ServeStatus::kBudgetExceeded, "tenant cycle budget exhausted");
      return true;
    }
    return false;
#if defined(__cpp_exceptions)
  } catch (const std::exception& e) {
    // Host-side failure isolation: this submission retires, siblings and
    // the daemon itself keep running.
    task->machine.reset();
    Retire(task, ServeStatus::kFailed, StrFormat("host exception: %s", e.what()));
    return true;
  }
#endif
}

}  // namespace rings

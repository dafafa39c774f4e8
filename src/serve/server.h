// The multi-tenant serving core behind the `ringsimd` daemon: a
// long-running slice pool (src/fleet/slice_pool.h) that turns workload
// submissions (kasm source with a `;;` manifest, or a pre-assembled
// snapshot image, plus optional tty input) into protected machines, runs
// them in slices, and reports per-machine status + FNV-1a fingerprint.
//
// Machines are spawned from golden images (src/fleet/golden_image.h): the
// first submission of a distinct program pays boot+assemble+load once;
// every later submission of the same program is a copy-on-write clone.
// The simulated trajectory is identical either way — the differential
// tests and the daemon smoke job pin submission fingerprints against
// standalone ringsim runs.
//
// Tenancy: every submission names a tenant; a tenant's budget caps the
// memory words any of its machines may claim (enforced at submit) and the
// total simulated cycles all its machines may burn (enforced slice by
// slice — a machine that exhausts the tenant's remaining cycles retires
// as budget-exceeded, exactly like a fleet job hitting max_cycles).
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/fleet/golden_image.h"
#include "src/fleet/slice_pool.h"
#include "src/sys/machine.h"

namespace rings {

struct ServeConfig {
  int threads = 4;
  // Simulated cycles per scheduling slice (the serving analogue of
  // FleetConfig::slice_cycles).
  uint64_t slice_cycles = 250'000;
  // Core-store size for machines built from kasm source — the
  // MachineConfig default, so daemon fingerprints are comparable with
  // standalone ringsim runs of the same guest. COW zero frames make the
  // large store free until written. (Image submissions dictate their own
  // size; the tenant memory budget applies to both.)
  size_t machine_memory_words = size_t{1} << 22;
  // Per-submission cycle cap when the submission does not set one.
  uint64_t default_max_cycles = 100'000'000;
};

// Per-tenant resource ceilings. Defaults are unlimited.
struct TenantBudget {
  uint64_t max_cycles_total = UINT64_MAX;  // simulated cycles, summed over all machines
  uint64_t max_memory_words = UINT64_MAX;  // per-machine core-store ceiling
};

enum class ServeStatus {
  kQueued,
  kRunning,
  kCompleted,       // every process exited
  kFailed,          // assembly/instantiation/restore failure or dirty exit
  kBudgetExceeded,  // submission or tenant cycle budget exhausted
  kRejected,        // refused at submit (memory budget, malformed submission)
};

std::string_view ServeStatusName(ServeStatus status);

struct Submission {
  std::string tenant = "default";
  // Exactly one of `source` (kasm + `;;` manifest) or `image` (snapshot
  // bytes) must be set.
  std::string source;
  std::vector<uint8_t> image;
  // Extra tty input fed to this machine before it starts (appended after
  // any `;; tty-input` from the manifest).
  std::string stdin_text;
  // Simulated-cycle cap for this machine; 0 = ServeConfig default.
  uint64_t max_cycles = 0;
};

struct Completion {
  uint64_t id = 0;
  std::string tenant;
  ServeStatus status = ServeStatus::kQueued;
  uint64_t fingerprint = 0;
  int exit_code = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  std::string tty;
  std::string error;
  // Host-only: submit-to-retire turnaround (feeds bench_serve's p50/p99;
  // never part of any fingerprint).
  uint64_t turnaround_ns = 0;

  bool ok() const { return status == ServeStatus::kCompleted && exit_code == 0; }
  std::string ToString() const;
};

class Server {
 public:
  explicit Server(ServeConfig config = ServeConfig{});
  ~Server();  // implies Shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Sets (replaces) a tenant's budget. Applies to future submissions and
  // future slices of running ones.
  void SetTenantBudget(const std::string& tenant, TenantBudget budget);

  // Enqueues a workload; returns its submission id (always valid to
  // Wait on — a refused submission completes immediately as kRejected).
  uint64_t Submit(Submission submission);

  // Blocks until submission `id` retires and returns its completion. Each
  // id is waited on exactly once: the call hands the completion over and
  // forgets the submission, so a second Wait on the same id never returns.
  Completion Wait(uint64_t id);

  // Stops accepting submissions, drains everything queued, joins the
  // workers. Idempotent.
  void Shutdown();

  const ServeConfig& config() const { return config_; }

 private:
  struct Task {
    uint64_t id = 0;
    Submission submission;
    std::unique_ptr<Machine> machine;
    uint64_t max_cycles = 0;
    uint64_t consumed_cycles = 0;
    std::chrono::steady_clock::time_point submitted_at;
    Completion completion;
    bool done = false;
  };
  struct Tenant {
    TenantBudget budget;
    uint64_t consumed_cycles = 0;
  };

  // Builds the task's machine (golden clone or image restore). Returns
  // false with the completion already filled on failure.
  bool Materialize(Task* task);
  // Runs one slice of submission `id`; true when it retired.
  bool RunSlice(uint64_t id);
  void Retire(Task* task, ServeStatus status, std::string error);
  // Remaining simulated cycles the tenant may still burn.
  uint64_t TenantRemaining(const std::string& tenant);
  void ChargeTenant(const std::string& tenant, uint64_t cycles);

  ServeConfig config_;
  // Keep golden images alive for the server's lifetime: tenants come and
  // go, the daemon persists.
  GoldenImageRegistry::Pin golden_pin_;

  std::mutex mu_;  // tasks_, tenants_, next_id_, accepting_
  std::condition_variable done_cv_;  // waiters sleep here
  // Submissions from Submit until their Wait collects the completion.
  std::map<uint64_t, std::unique_ptr<Task>> tasks_;
  std::map<std::string, Tenant> tenants_;
  uint64_t next_id_ = 1;
  bool accepting_ = true;

  // Runs submissions by id. Last: its workers stop before the state
  // above is destroyed.
  SlicePool pool_;
};

}  // namespace rings

#endif  // SRC_SERVE_SERVER_H_

// Golden machine images: one booted+loaded Machine per distinct program,
// sealed and never run, from which every fleet member (and every serving-
// daemon tenant machine, src/serve) is spawned by copy-on-write clone
// instead of construct+load. Construction of a ring machine is dominated
// by supervisor initialization plus program assembly/registration — work
// that is identical for every machine running the same program. A
// GoldenImage pays it once; Spawn() is then Machine::CloneFrom, which
// costs O(registers + frame table) (see src/mem/physical_memory.h).
//
// The registry is keyed by program-image identity and holds weak
// references by default (a golden image dies with its last user), with a
// Pin RAII scope that retains every image handed out while any Pin is
// alive: fleets retire members one at a time, so per-machine lifetime
// alone would let the image expire mid-run and force a re-boot per spawn.
#ifndef SRC_FLEET_GOLDEN_IMAGE_H_
#define SRC_FLEET_GOLDEN_IMAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "src/sys/machine.h"

namespace rings {

// A sealed, never-run machine to clone from. The wrapped machine is
// frozen at construction (its memory frames are sealed for cloning under
// the registry lock), so concurrent Spawn() calls from fleet worker
// threads only ever read it.
class GoldenImage {
 public:
  // Wraps a freshly booted+loaded machine. `machine` must be ok() and
  // must never run afterwards; the image takes ownership.
  GoldenImage(std::unique_ptr<Machine> machine, uint64_t identity);

  // A runnable copy-on-write clone of the golden machine. Thread-safe.
  std::unique_ptr<Machine> Spawn() const { return Machine::CloneFrom(*machine_); }

  uint64_t identity() const { return identity_; }
  const Machine& machine() const { return *machine_; }

 private:
  std::unique_ptr<Machine> machine_;
  uint64_t identity_ = 0;
};

// Process-wide registry of golden images, keyed by program-image identity
// (ProgramIdentity, src/sys/machine.h). Thread-safe: fleet machine
// factories run concurrently on worker threads.
class GoldenImageRegistry {
 public:
  static GoldenImageRegistry& Instance();

  // Returns the golden image for `identity`, building it with `build`
  // under the registry lock when no live image exists. `build` returns
  // the booted+loaded machine to seal (null on boot/load failure, in
  // which case Acquire returns null). `built` (optional) reports whether
  // this call did the boot+load — the evidence that an N-machine fleet
  // boots each program once.
  std::shared_ptr<const GoldenImage> Acquire(
      uint64_t identity, const std::function<std::unique_ptr<Machine>()>& build,
      bool* built = nullptr);

  // Live (still-referenced) images; purges expired slots. For tests.
  size_t LiveImages();

  // RAII retention scope: while any Pin is alive the registry keeps one
  // strong reference to every image Acquire hands out; the last Pin's
  // release drops them.
  class Pin {
   public:
    Pin();
    ~Pin();
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
  };

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, std::weak_ptr<const GoldenImage>> images_;
  size_t pin_count_ = 0;
  std::unordered_set<std::shared_ptr<const GoldenImage>> pinned_;
};

}  // namespace rings

#endif  // SRC_FLEET_GOLDEN_IMAGE_H_

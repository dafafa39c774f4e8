// Superblock cache: the host-side memo of straight-line decoded runs, and
// the heart of the block engine. It chains already-decoded InsnCache
// entries into blocks that a single Cpu::StepBlock call executes straight
// through, paying the fetch, decode and address revalidation once per
// block instead of once per instruction.
//
// A block is a host artifact with no architectural footprint: every op
// charges exactly what the reference interpreter's fetch charges with an
// SDW-cache hit, the per-instruction boundary work (timer, fault-injection
// hooks, trap capture state) runs before every op, and any event that
// could make the recorded run diverge from what the per-instruction path
// would do bails the remaining ops back to that path. Correctness rests
// on the dispatch-time validation (the block's segment has a current
// verdict with matching base/paging/ring/bound) and on a monotonically
// increasing `version` that every invalidation bumps: the inner loop
// re-reads it before each op, so a mid-block SDW eviction, fault-injected
// cache drop, or store into code retires the rest of the block. Paged
// blocks additionally revalidate each op's fetch address through the live
// TLB, so a moved or snooped translation can never replay a stale decode.
#ifndef SRC_CPU_BLOCK_CACHE_H_
#define SRC_CPU_BLOCK_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>

#include "src/core/ring.h"
#include "src/isa/instruction.h"
#include "src/mem/word.h"

namespace rings {

class BlockCache {
 public:
  static constexpr size_t kEntries = 256;  // direct-mapped by (segno, start)
  static constexpr size_t kMaxOps = 32;

  struct Op {
    Instruction ins{};
    Wordno wordno = 0;
    AbsAddr addr = 0;  // absolute fetch address the decode was filled from
    bool needs_ea = false;
  };

  struct Block {
    uint64_t gen = 0;  // valid iff equal to the cache's current generation
    Segno segno = 0;
    Wordno start = 0;
    uint16_t count = 0;
    Ring ring = 0;        // IPR.RING the block was built under
    bool checks = false;  // checks_enabled() at build time
    bool paged = false;   // the verdict's paging shape at build time
    AbsAddr base = 0;     // the verdict's base (page-table base if paged)
    // Direct chaining (see DESIGN.md §7): the successor block this one
    // last transferred into, stamped with the cache version at patch
    // time. A link is only followed when link_version equals the current
    // version — every invalidation site bumps the version (or the
    // generation, which retires the target outright), so a stale link can
    // never be followed; it is simply dead until repatched. The builder
    // resets the link when a slot is repurposed. Blocks never move or die
    // before their cache does, so the pointer stays dereferenceable.
    Block* link = nullptr;
    uint64_t link_version = 0;
    // Whether the terminator op may chain into a successor at all
    // (Cpu::ChainEligible, precomputed at build time so the chain point
    // tests one flag instead of re-deriving it per transition).
    bool chain_ok = false;
    // Host shortcut: the fixed simulated-cycle charge every op in this
    // block pays before execution (instruction base + fetch check under
    // this block's checks regime + page walk if paged + the fetch read),
    // folded into one add at build time. Identical to the sum the
    // per-instruction path charges piecewise.
    uint64_t op_charge = 0;
    std::array<Op, kMaxOps> ops{};
  };

  // The published block starting at (segno, start), if any. Mutable: the
  // chaining engine patches successor links into live blocks.
  Block* Lookup(Segno segno, Wordno start) {
    Block* b = slots_[Index(segno, start)].get();
    if (b != nullptr && b->gen == gen_ && b->segno == segno && b->start == start) {
      return b;
    }
    return nullptr;
  }

  // The slot a block starting at (segno, start) builds into; the builder
  // fills it in place and stamps `gen` with generation() to publish it.
  // A slot's block is allocated on its first build (see slots_ below).
  Block* SlotFor(Segno segno, Wordno start) {
    std::unique_ptr<Block>& slot = slots_[Index(segno, start)];
    if (slot == nullptr) {
      slot = std::make_unique<Block>();
    }
    return slot.get();
  }

  // Retires every block built from `segno` (its SDW was edited, dropped,
  // or a store landed in its code). Returns blocks dropped; always bumps
  // the version so an in-flight block bails.
  size_t InvalidateSegment(Segno segno);

  // O(1) whole-cache invalidation (generation bump); wired to every event
  // that retires the verdict regime wholesale (DBR reloads, SDW-cache
  // flushes, behind-the-back stores, engine toggles).
  void Flush() {
    ++gen_;
    ++version_;
  }

  // Signals that derived state changed under a possibly-running block
  // without retiring any stored block (e.g. an SDW-cache insert evicting
  // whatever a slot held); the inner loop bails and revalidates.
  void BumpVersion() { ++version_; }
  uint64_t version() const { return version_; }
  uint64_t generation() const { return gen_; }

 private:
  static size_t Index(Segno segno, Wordno start) {
    return (start ^ (static_cast<uint32_t>(segno) * 0x9E3779B1u)) & (kEntries - 1);
  }

  uint64_t gen_ = 1;  // fresh blocks have gen 0 == invalid
  uint64_t version_ = 0;
  // One pointer per slot, each block allocated on its slot's first build:
  // 256 blocks of 32 decoded ops each are ~270 KiB, and a fresh or cloned
  // machine (which a fleet or the serving daemon spawns per job) should
  // pay only for the blocks its run builds, not for the whole store. A
  // null slot reads as empty.
  std::array<std::unique_ptr<Block>, kEntries> slots_{};
};

}  // namespace rings

#endif  // SRC_CPU_BLOCK_CACHE_H_

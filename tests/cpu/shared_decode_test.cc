// Read-only pre-decoded program image (src/cpu/shared_decode.h): a
// golden machine builds one image at load, its copy-on-write clones share
// it, and a clone that modifies its own code diverges from the image
// word-by-word (the copy-on-write split) without its siblings ever seeing
// the change.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/cpu/shared_decode.h"
#include "src/sys/machine.h"

namespace rings {
namespace {

// A guest that copies one word from the `patch` data segment over its own
// `target` instruction, executes it, and exits with the A register:
//
//   main w0: lda src,*     main w4: src -> patch[0]
//        w1: sta dst,*          w5: dst -> main[2]
//        w2: ldai 7  (target)
//        w3: mme 0
//
// Poking patch[0] with the original `ldai 7` encoding makes the
// self-store a no-op (exit 7); poking a different instruction makes the
// guest genuinely self-modifying (exit = the new immediate).
constexpr char kSelfPatchSource[] = R"(
        .segment main
start:  lda   src,*
        sta   dst,*
target: ldai  7
        mme   0
src:    .its  4, patch, 0
dst:    .its  4, main, 2

        .segment patch
        .word 0
)";

std::unique_ptr<Machine> MakeSelfPatchGolden() {
  MachineConfig config;
  config.memory_words = size_t{1} << 18;
  auto machine = std::make_unique<Machine>(config);
  SegmentAccess writable_code = MakeProcedureSegment(4, 4);
  writable_code.flags.write = true;  // the guest stores into its own code
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(writable_code);
  acls["patch"] = AccessControlList::Public(MakeDataSegment(4, 4));
  std::string error;
  if (!machine->LoadProgramSource(kSelfPatchSource, acls, &error)) {
    ADD_FAILURE() << "load failed: " << error;
    return nullptr;
  }
  Process* process = machine->Login("test");
  machine->supervisor().InitiateAll(process);
  if (!machine->Start(process, "main", "start", kUserRing)) {
    ADD_FAILURE() << "start failed";
    return nullptr;
  }
  machine->memory().SealForCloning();
  return machine;
}

int64_t RunToExit(Machine* machine) {
  machine->Run(10'000'000);
  const auto& processes = machine->supervisor().processes();
  EXPECT_EQ(processes.size(), 1u);
  if (processes.empty()) {
    return -1;
  }
  EXPECT_EQ(processes[0]->state, ProcessState::kExited);
  return processes[0]->exit_code;
}

TEST(SharedDecode, SiblingsShareOneImageAndBuildOnce) {
  const std::unique_ptr<Machine> golden = MakeSelfPatchGolden();
  ASSERT_NE(golden, nullptr);
  auto a = Machine::CloneFrom(*golden);
  auto b = Machine::CloneFrom(*golden);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(a->cpu().has_decode_image());
  EXPECT_TRUE(b->cpu().has_decode_image());
  // The golden decoded its program once at load; the clones alias that
  // image rather than building their own.
  EXPECT_EQ(golden->cpu().counters().shared_decode_builds, 1u);
  EXPECT_EQ(a->cpu().counters().shared_decode_builds, 0u);
  EXPECT_EQ(b->cpu().counters().shared_decode_builds, 0u);
  EXPECT_GT(golden->cpu().decode_image_bytes(), 0u);
  EXPECT_EQ(a->cpu().decode_image_bytes(), golden->cpu().decode_image_bytes());
  EXPECT_EQ(b->cpu().decode_image_bytes(), golden->cpu().decode_image_bytes());

  // Running a clone decodes from the shared image.
  ASSERT_TRUE(a->PokeSegment("patch", 0, EncodeInstruction(MakeIns(Opcode::kLdai, 7))));
  EXPECT_EQ(RunToExit(a.get()), 7);
  EXPECT_GT(a->cpu().counters().shared_decode_hits, 0u);
  EXPECT_EQ(a->cpu().counters().shared_decode_builds, 0u);
}

TEST(SharedDecode, SelfModifyingSiblingDivergesWithoutTouchingTheImage) {
  const std::unique_ptr<Machine> golden = MakeSelfPatchGolden();
  ASSERT_NE(golden, nullptr);
  auto a = Machine::CloneFrom(*golden);
  auto b = Machine::CloneFrom(*golden);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // A's self-store rewrites `target` with its original encoding (a
  // content no-op); B's rewrites it with `ldai 31`.
  ASSERT_TRUE(a->PokeSegment("patch", 0, EncodeInstruction(MakeIns(Opcode::kLdai, 7))));
  ASSERT_TRUE(b->PokeSegment("patch", 0, EncodeInstruction(MakeIns(Opcode::kLdai, 31))));

  // B runs (and diverges) first; A still reads the shared image after.
  EXPECT_EQ(RunToExit(b.get()), 31);
  EXPECT_EQ(RunToExit(a.get()), 7);

  // B's rewritten word missed the image (the CoW split) and was decoded
  // live; A's identical word kept hitting it — B's store never reached
  // the shared copy.
  EXPECT_GT(b->cpu().counters().shared_decode_misses, 0u);
  EXPECT_EQ(a->cpu().counters().shared_decode_misses, 0u);
  EXPECT_GT(a->cpu().counters().shared_decode_hits, 0u);
}

}  // namespace
}  // namespace rings

// Snapshot/restore correctness. The headline contract: restoring a
// mid-run image into a fresh machine and running to completion produces
// the exact fingerprint, counters, and trap sequence the live machine
// produces uninterrupted — on the reference interpreter and on the block
// engine. The robustness contract: truncated, bit-flipped,
// wrong-endian, and wrong-shape images are rejected with structured
// errors and leave the target machine untouched.
#include "src/snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/xorshift.h"
#include "src/fleet/fingerprint.h"
#include "src/mem/descriptor_segment.h"
#include "src/mem/page_table.h"
#include "src/sup/audit.h"
#include "src/sys/machine.h"
#include "src/sys/machine_state.h"
#include "tests/snapshot/image_surgery.h"

namespace rings {
namespace {

// --- the three pinned guest workloads --------------------------------------

// Gate-crossing call loop: repeated downward calls through a ring-1 gate.
constexpr char kCallLoopSource[] = R"(
        .segment main
start:
loop:   epp   pr2, gptr,*
        call  pr2|0
        aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word 300
cnt:    .its  4, counter, 0
gptr:   .its  4, target, 0

        .segment counter
        .word 0

        .segment target
        .gates 1
entry:  ret   pr7|0
)";

std::unique_ptr<Machine> MakeCallLoopMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counter"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["target"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 7, 1));
  if (!machine->LoadProgramSource(kCallLoopSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* p = machine->Login("caller");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "main", "start", kUserRing)) {
    return nullptr;
  }
  return machine;
}

// Demand pager: pounds two pages of an initially absent paged segment,
// so missing-page traps and supervisor page fills cross the snapshot.
constexpr char kPagerSource[] = R"(
        .segment pager
pstart: aos   cnt,*
        lda   far,*
        adai  1
        sta   far,*
        lda   cnt,*
        sba   plim
        tmi   pstart
        mme   0
plim:   .word 400
cnt:    .its  4, bigdata, 10
far:    .its  4, bigdata, 1034
)";

std::unique_ptr<Machine> MakePagerMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  if (!machine->registry()
           .CreatePagedSegment("bigdata", 2 * kPageWords,
                               AccessControlList::Public(MakeDataSegment(4, 4)),
                               /*populate=*/false)
           .has_value()) {
    return nullptr;
  }
  std::map<std::string, AccessControlList> acls;
  acls["pager"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  if (!machine->LoadProgramSource(kPagerSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* p = machine->Login("pager");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "pager", "pstart", kUserRing)) {
    return nullptr;
  }
  return machine;
}

// Protected-directory search (the paper's file-search workload): a ring-4
// loop probing a rings<=1 directory through a tiny ring-1 gate service —
// one ring crossing per probe, exiting with the found value.
constexpr char kSearchSource[] = R"(
        .segment rdsvc
        .gates 1
gate:   stq   tq,*
        ldx   x1, tq,*
        epp   pr3, sdirp,*
        lda   pr3|0,x1
        ret   pr7|0
tq:     .its  1, svcdata, 0
sdirp:  .its  1, directory, 0

        .segment svcdata
        .block 1

        .segment main
start:  stz   idx,*
loop:   ldq   idx,*
        epp   pr2, g,*
        call  pr2|0
        sba   key
        tze   found
        aos   idx,*
        aos   idx,*
        lda   idx,*
        sba   dlen
        tmi   loop
        ldai  -1
        mme   0
found:  lda   idx,*
        adai  1
        sta   idx,*
        ldq   idx,*
        epp   pr2, g,*
        call  pr2|0
        mme   0
key:    .word 40
dlen:   .word 80
idx:    .its  4, udata, 0
g:      .its  4, rdsvc, 0

        .segment udata
        .block 1
)";

std::unique_ptr<Machine> MakeSearchMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  std::vector<Word> directory;
  for (int i = 1; i <= 40; ++i) {
    directory.push_back(static_cast<Word>(i));
    directory.push_back(static_cast<Word>(1000 + i));
  }
  machine->registry().CreateSegmentWithContents(
      "directory", directory, 0, 0, AccessControlList::Public(MakeReadOnlyDataSegment(1)));
  std::map<std::string, AccessControlList> acls;
  acls["rdsvc"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 5, 1));
  acls["svcdata"] = AccessControlList::Public(MakeDataSegment(1, 1));
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["udata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  if (!machine->LoadProgramSource(kSearchSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* p = machine->Login("searcher");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "main", "start", kUserRing)) {
    return nullptr;
  }
  return machine;
}

using MachineFactory = std::unique_ptr<Machine> (*)(const MachineConfig&);

struct Guest {
  const char* name;
  MachineFactory factory;
};
constexpr Guest kGuests[] = {
    {"call-loop", MakeCallLoopMachine},
    {"pager", MakePagerMachine},
    {"dir-search", MakeSearchMachine},
};

struct Engine {
  const char* name;
  bool fast_path;
};
constexpr Engine kEngines[] = {
    {"reference", false},
    {"block", true},
};

MachineConfig ConfigFor(const Engine& engine) {
  MachineConfig config;
  config.fast_path = engine.fast_path;
  return config;
}

void ExpectArchitecturalCountersIdentical(const Counters& a, const Counters& b) {
  Counters::ForEachField(
      [&a, &b](const char* name, uint64_t Counters::* member, bool host_only) {
        if (host_only) {
          return;  // the restored machine re-warms host caches
        }
        EXPECT_EQ(a.*member, b.*member) << "counter " << name;
      });
  for (size_t i = 0; i < a.traps.size(); ++i) {
    EXPECT_EQ(a.traps[i], b.traps[i])
        << "trap count for " << TrapCauseName(static_cast<TrapCause>(i));
  }
}

// ---------------------------------------------------------------------------
// Exact-restore determinism: every guest, every engine.
// ---------------------------------------------------------------------------

TEST(Snapshot, RestoreTrajectoryMatchesUninterruptedRun) {
  for (const Guest& guest : kGuests) {
    for (const Engine& engine : kEngines) {
      SCOPED_TRACE(std::string(guest.name) + "/" + engine.name);
      const MachineConfig config = ConfigFor(engine);

      // The reference: the same machine run uninterrupted to completion.
      std::unique_ptr<Machine> reference = guest.factory(config);
      ASSERT_NE(reference, nullptr);
      ASSERT_TRUE(reference->Run(100'000'000).idle);
      const uint64_t want_fingerprint = FingerprintMachine(*reference);

      // The live machine runs a few short slices, then is snapshotted.
      std::unique_ptr<Machine> live = guest.factory(config);
      ASSERT_NE(live, nullptr);
      for (int slice = 0; slice < 3; ++slice) {
        live->Run(2'000);
      }
      std::vector<uint8_t> image;
      std::string error;
      ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
      ASSERT_TRUE(VerifySnapshot(image, &error)) << error;

      // Restore into a bare machine (no program loaded): the image alone
      // must carry the full state.
      Machine restored(config);
      ASSERT_TRUE(restored.ok());
      ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
      EXPECT_EQ(restored.cpu().cycles(), live->cpu().cycles());
      EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));

      // Both the interrupted original and the restored copy must land on
      // the uninterrupted run's exact final state.
      ASSERT_TRUE(live->Run(100'000'000).idle);
      ASSERT_TRUE(restored.Run(100'000'000).idle);
      EXPECT_EQ(FingerprintMachine(*live), want_fingerprint);
      EXPECT_EQ(FingerprintMachine(restored), want_fingerprint);
      EXPECT_EQ(restored.cpu().cycles(), live->cpu().cycles());
      EXPECT_EQ(restored.TtyOutput(), live->TtyOutput());
      ExpectArchitecturalCountersIdentical(restored.cpu().counters(), live->cpu().counters());
      ExpectArchitecturalCountersIdentical(restored.cpu().counters(),
                                           reference->cpu().counters());
    }
  }
}

// The snapshot point must not matter: images taken at many different
// cut points all converge to the same final state.
TEST(Snapshot, EveryCutPointConverges) {
  const MachineConfig config;
  std::unique_ptr<Machine> reference = MakeSearchMachine(config);
  ASSERT_NE(reference, nullptr);
  ASSERT_TRUE(reference->Run(100'000'000).idle);
  const uint64_t want_fingerprint = FingerprintMachine(*reference);

  for (const uint64_t cut : {1u, 500u, 1'500u, 4'000u, 9'000u}) {
    SCOPED_TRACE(cut);
    std::unique_ptr<Machine> live = MakeSearchMachine(config);
    ASSERT_NE(live, nullptr);
    live->Run(cut);
    std::vector<uint8_t> image;
    std::string error;
    ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
    Machine restored(config);
    ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
    ASSERT_TRUE(restored.Run(100'000'000).idle);
    EXPECT_EQ(FingerprintMachine(restored), want_fingerprint);
  }
}

// A snapshot of a completed machine round-trips exactly.
TEST(Snapshot, CompletedMachineRoundTrips) {
  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Run(100'000'000).idle);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  Machine restored(config);
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));
  EXPECT_TRUE(restored.Run(1'000'000).idle);  // nothing left to run
  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));
}

TEST(Snapshot, PeekMetaReportsMachineShape) {
  MachineConfig config;
  config.memory_words = size_t{1} << 20;
  config.quantum = 1234;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;

  SnapshotMeta meta;
  ASSERT_TRUE(PeekSnapshotMeta(image, &meta, &error)) << error;
  EXPECT_EQ(meta.memory_words, uint64_t{1} << 20);
  EXPECT_EQ(meta.quantum, 1234);
  EXPECT_EQ(meta.mode, ProtectionMode::kRingHardware);
  EXPECT_EQ(meta.cycle_model.instruction_base, CycleModel{}.instruction_base);
}

// ---------------------------------------------------------------------------
// Rejection: corrupted, truncated, wrong-endian, wrong-shape images.
// ---------------------------------------------------------------------------

std::vector<uint8_t> MakeValidImage(const MachineConfig& config) {
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  EXPECT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  EXPECT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  return image;
}

TEST(Snapshot, TruncatedImagesAreRejectedAtEveryLength) {
  const MachineConfig config;
  const std::vector<uint8_t> image = MakeValidImage(config);
  ASSERT_GT(image.size(), 64u);

  Machine target(config);
  ASSERT_TRUE(target.ok());
  const uint64_t untouched = FingerprintMachine(target);

  std::vector<size_t> lengths = {0, 1, 4, 8, 12, 15, 16, 17, 31, image.size() - 1};
  for (size_t len = 32; len < image.size(); len += 97) {
    lengths.push_back(len);
  }
  for (const size_t len : lengths) {
    SCOPED_TRACE(len);
    std::string error;
    EXPECT_FALSE(VerifySnapshot(image.data(), len, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(RestoreSnapshot(image.data(), len, &target, &error));
    EXPECT_FALSE(error.empty());
  }
  // A rejected image never modifies the target machine.
  EXPECT_EQ(FingerprintMachine(target), untouched);
}

TEST(Snapshot, EverySingleBitFlipIsDetected) {
  const MachineConfig config;
  std::vector<uint8_t> image = MakeValidImage(config);
  Machine target(config);
  ASSERT_TRUE(target.ok());
  const uint64_t untouched = FingerprintMachine(target);

  Xorshift rng(0xF11Fu);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t byte = rng.Below(image.size());
    const uint8_t mask = static_cast<uint8_t>(1u << rng.Below(8));
    image[byte] ^= mask;
    SCOPED_TRACE(trial);
    std::string error;
    EXPECT_FALSE(VerifySnapshot(image, &error)) << "byte " << byte;
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(RestoreSnapshot(image, &target, &error)) << "byte " << byte;
    EXPECT_FALSE(error.empty());
    image[byte] ^= mask;  // un-flip for the next trial
  }
  std::string error;
  EXPECT_TRUE(VerifySnapshot(image, &error)) << error;  // pristine again
  EXPECT_EQ(FingerprintMachine(target), untouched);
}

TEST(Snapshot, WrongEndianImageIsNamedAsSuch) {
  const std::vector<uint8_t> image = MakeValidImage(MachineConfig{});
  std::vector<uint8_t> swapped = image;
  std::swap(swapped[0], swapped[3]);
  std::swap(swapped[1], swapped[2]);
  std::string error;
  EXPECT_FALSE(VerifySnapshot(swapped, &error));
  EXPECT_NE(error.find("wrong-endian"), std::string::npos) << error;
}

// An image in the previous format (version 1, whose counter section
// carried three more slots) is refused at the header, even with a header
// CRC that matches.
TEST(Snapshot, PreviousFormatVersionIsRefused) {
  std::vector<uint8_t> image = MakeValidImage(MachineConfig{});
  image[4] = 1;
  image[5] = image[6] = image[7] = 0;
  const uint32_t header_crc = image_surgery::Crc32(image.data(), 12);
  for (int i = 0; i < 4; ++i) {
    image[12 + i] = static_cast<uint8_t>(header_crc >> (8 * i));
  }
  Machine target{MachineConfig{}};
  ASSERT_TRUE(target.ok());
  const uint64_t untouched = FingerprintMachine(target);
  std::string error;
  EXPECT_FALSE(RestoreSnapshot(image, &target, &error));
  EXPECT_NE(error.find("unsupported snapshot version 1 (expected 2)"), std::string::npos)
      << error;
  EXPECT_EQ(FingerprintMachine(target), untouched);
}

TEST(Snapshot, GarbageAndEmptyImagesAreRejected) {
  std::string error;
  EXPECT_FALSE(VerifySnapshot(nullptr, 0, &error));
  const std::vector<uint8_t> garbage(1024, 0xA5);
  error.clear();
  EXPECT_FALSE(VerifySnapshot(garbage, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(Snapshot, MemoryShapeMismatchIsRejected) {
  const std::vector<uint8_t> image = MakeValidImage(MachineConfig{});
  MachineConfig smaller;
  smaller.memory_words = size_t{1} << 20;
  Machine target(smaller);
  ASSERT_TRUE(target.ok());
  std::string error;
  EXPECT_FALSE(RestoreSnapshot(image, &target, &error));
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

TEST(Snapshot, CycleModelMismatchIsRejected) {
  const std::vector<uint8_t> image = MakeValidImage(MachineConfig{});
  MachineConfig other;
  other.cycle_model.trap = 99;
  Machine target(other);
  ASSERT_TRUE(target.ok());
  std::string error;
  EXPECT_FALSE(RestoreSnapshot(image, &target, &error));
  EXPECT_NE(error.find("cycle model"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Image bytes and frame-sparse memory: saving skips frames still aliasing
// the zero frame and restoring keeps only the image's populated frames,
// without changing a byte of the format.
// ---------------------------------------------------------------------------

constexpr AbsAddr kZeroedFrameBase = AbsAddr{1} << 21;

// The guest whose image bytes are pinned: the call loop on the reference
// engine of a default-size machine, cut at 3,000 cycles, plus host-side
// stores into the unallocated top of the store — a frame privatized and
// then zeroed again (an all-zero private frame inside the long zero run),
// and a nonzero pair straddling a frame boundary, followed by a private
// frame's zero tail and then zero-frame aliases.
std::unique_ptr<Machine> MakePinnedMachine() {
  MachineConfig config;
  config.fast_path = false;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  if (live == nullptr) {
    return nullptr;
  }
  live->Run(3'000);
  PhysicalMemory& memory = live->memory();
  memory.Write(kZeroedFrameBase + 17, 0xABCDEF);
  memory.Write(kZeroedFrameBase + 17, 0);
  memory.Write(kZeroedFrameBase + 3 * PhysicalMemory::kFrameWords - 1, 0x1234);
  memory.Write(kZeroedFrameBase + 3 * PhysicalMemory::kFrameWords, 0x5678);
  return live;
}

// Length and CRC-32 of MakePinnedMachine's image at format version 2.
// Skipping zero frames on save changes no byte of the format.
constexpr size_t kPinnedImageBytes = 43055;
constexpr uint32_t kPinnedImageCrc = 0x86B5CDCDu;

TEST(SnapshotImage, SaveBytesArePinned) {
  std::unique_ptr<Machine> live = MakePinnedMachine();
  ASSERT_NE(live, nullptr);
  EXPECT_FALSE(live->memory().aliases_zero_frame(kZeroedFrameBase >> PhysicalMemory::kFrameShift));
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  EXPECT_EQ(image.size(), kPinnedImageBytes);
  EXPECT_EQ(image_surgery::Crc32(image), kPinnedImageCrc);
}

// The second pinned guest covers the state the first image leaves empty:
// a ring-4 program makes an upward call into a ring-5 loop (one stacked
// return gate), which pounds two demand-paged pages and writes to the
// typewriter through the ring-1 gate (I/O completions in flight), on a
// machine with a seeded fault injector.
constexpr char kInFlightSource[] = R"(
        .segment main
start:  epp   pr2, hiptr,*
        call  pr2|0            ; upward call: ring 4 -> ring 5
        mme   0
hiptr:  .its  4, high, 0

        .segment high
        .gates 1
entry:  spp   pr7, savew,*     ; the tty calls below clobber PR7
hloop:  aos   cnt,*
        lda   far,*
        adai  1
        sta   far,*
        epp   pr1, arglist
        epp   pr2, ttyg,*
        call  pr2|0            ; ring 5 -> ring 1 tty gate: starts an I/O
        lda   cnt,*
        sba   hlim
        tmi   hloop
        ret   saver,*          ; downward return through the stacked gate
hlim:   .word 60
cnt:    .its  5, bigdata, 10
far:    .its  5, bigdata, 1034
arglist: .word 1
        .its  5, high, msg
        .word 1
msg:    .word 42
ttyg:   .its  5, sup_gates, 1
savew:  .its  5, hdata, 0
saver:  .its  5, hdata, 0,*

        .segment hdata
        .block 1
)";

std::unique_ptr<Machine> MakeInFlightMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  if (!machine->registry()
           .CreatePagedSegment("bigdata", 2 * kPageWords,
                               AccessControlList::Public(MakeDataSegment(5, 5)),
                               /*populate=*/false)
           .has_value()) {
    return nullptr;
  }
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["high"] = AccessControlList::Public(MakeProcedureSegment(5, 5, 5, 1));
  acls["hdata"] = AccessControlList::Public(MakeDataSegment(5, 5));
  if (!machine->LoadProgramSource(kInFlightSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* p = machine->Login("inflight");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "main", "start", kUserRing)) {
    return nullptr;
  }
  return machine;
}

// The in-flight guest on the reference engine with a seeded injector,
// run in 150-cycle slices until an upward call, an I/O completion and an
// injected fault are all outstanding at a Run boundary.
std::unique_ptr<Machine> MakePinnedInFlightMachine() {
  MachineConfig config;
  config.fast_path = false;
  config.fault = FaultConfig::Uniform(/*seed=*/29, /*ppm=*/400);
  std::unique_ptr<Machine> live = MakeInFlightMachine(config);
  if (live == nullptr) {
    return nullptr;
  }
  for (int slice = 0; slice < 400; ++slice) {
    live->Run(150);
    const Process& p = *live->supervisor().processes().front();
    if (!p.return_gates.empty() && !live->pending_io().empty() &&
        !live->fault_injector()->events().empty()) {
      return live;
    }
  }
  return nullptr;
}

// Length and CRC-32 of MakePinnedInFlightMachine's image at format
// version 2.
constexpr size_t kPinnedInFlightImageBytes = 15828;
constexpr uint32_t kPinnedInFlightImageCrc = 0xEBA35708u;

TEST(SnapshotImage, InFlightSaveBytesArePinned) {
  std::unique_ptr<Machine> live = MakePinnedInFlightMachine();
  ASSERT_NE(live, nullptr);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  EXPECT_EQ(image.size(), kPinnedInFlightImageBytes);
  EXPECT_EQ(image_surgery::Crc32(image), kPinnedInFlightImageCrc);
  // Restoring and re-saving reproduces the bytes exactly.
  Machine restored(live->config());
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  std::vector<uint8_t> resaved;
  ASSERT_TRUE(SaveSnapshot(restored, &resaved, &error)) << error;
  EXPECT_EQ(resaved, image);
}

TEST(SnapshotImage, RestoreKeepsOnlyPopulatedFramesAndResavesIdentically) {
  std::unique_ptr<Machine> live = MakePinnedMachine();
  ASSERT_NE(live, nullptr);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;

  Machine restored(live->config());
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  // The zeroed frame comes back as a zero-frame alias; the frames holding
  // a nonzero word come back private.
  const PhysicalMemory& memory = restored.memory();
  constexpr size_t kZeroedFrame = kZeroedFrameBase >> PhysicalMemory::kFrameShift;
  EXPECT_TRUE(memory.aliases_zero_frame(kZeroedFrame));
  EXPECT_FALSE(memory.aliases_zero_frame(kZeroedFrame + 2));
  EXPECT_FALSE(memory.aliases_zero_frame(kZeroedFrame + 3));
  EXPECT_EQ(memory.frame_stats().private_frames, live->memory().frame_stats().private_frames - 1);
  EXPECT_EQ(memory.Read(kZeroedFrameBase + 3 * PhysicalMemory::kFrameWords), 0x5678u);

  std::vector<uint8_t> resaved;
  ASSERT_TRUE(SaveSnapshot(restored, &resaved, &error)) << error;
  EXPECT_EQ(resaved, image);
}

TEST(SnapshotImage, RestoreZeroesFramesTheImageDoesNotHold) {
  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;

  // Run on and dirty a frame the image holds as zero, then restore the
  // earlier image over the same machine.
  live->Run(2'000);
  live->memory().Write(kZeroedFrameBase, 99);
  ASSERT_TRUE(RestoreSnapshot(image, live.get(), &error)) << error;
  EXPECT_EQ(live->memory().Read(kZeroedFrameBase), 0u);
  EXPECT_TRUE(live->memory().aliases_zero_frame(kZeroedFrameBase >> PhysicalMemory::kFrameShift));
  std::vector<uint8_t> resaved;
  ASSERT_TRUE(SaveSnapshot(*live, &resaved, &error)) << error;
  EXPECT_EQ(resaved, image);
}

// A well-formed image (every CRC valid) declaring a 2^33-word store that
// is zero throughout: restore must not allocate for the declared size. It
// either restores or fails with a structured error; here it restores.
TEST(SnapshotImage, HugeZeroStoreRestoresSparsely) {
  constexpr uint64_t kWords = uint64_t{1} << 33;
  const std::vector<uint8_t> image =
      image_surgery::AsZeroStore(MakeValidImage(MachineConfig{}), kWords);
  std::string error;
  ASSERT_TRUE(VerifySnapshot(image, &error)) << error;
  SnapshotMeta meta;
  ASSERT_TRUE(PeekSnapshotMeta(image, &meta, &error)) << error;
  EXPECT_EQ(meta.memory_words, kWords);

  Machine machine(RestoreConfig(meta, MachineConfig{}));
  ASSERT_TRUE(machine.ok());
  ASSERT_TRUE(RestoreSnapshot(image, &machine, &error)) << error;
  const PhysicalMemory::FrameStats stats = machine.memory().frame_stats();
  EXPECT_EQ(stats.frames, kWords >> PhysicalMemory::kFrameShift);
  EXPECT_EQ(stats.zero_frames, stats.frames);
  EXPECT_EQ(machine.memory().Read(kWords - 1), 0u);

  // Into a default-size machine it is a structured shape mismatch.
  Machine small(MachineConfig{});
  const uint64_t untouched = FingerprintMachine(small);
  EXPECT_FALSE(RestoreSnapshot(image, &small, &error));
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
  EXPECT_EQ(FingerprintMachine(small), untouched);
}

// A well-formed image whose meta declares a 2^50-word store is refused
// when its meta is read, before any machine is built from it.
TEST(SnapshotImage, ImplausibleStoreSizeIsRejectedAtMeta) {
  const std::vector<uint8_t> valid = MakeValidImage(MachineConfig{});
  const std::vector<uint8_t> image = image_surgery::WithMetaWords(valid, uint64_t{1} << 50);
  std::string error;
  ASSERT_TRUE(VerifySnapshot(image, &error)) << error;
  SnapshotMeta meta;
  EXPECT_FALSE(PeekSnapshotMeta(image, &meta, &error));
  EXPECT_NE(error.find("implausible store size"), std::string::npos) << error;

  Machine target(MachineConfig{});
  const uint64_t untouched = FingerprintMachine(target);
  error.clear();
  EXPECT_FALSE(RestoreSnapshot(image, &target, &error));
  EXPECT_NE(error.find("implausible store size"), std::string::npos) << error;
  EXPECT_EQ(FingerprintMachine(target), untouched);

  // The limit itself is plausible.
  const std::vector<uint8_t> at_limit =
      image_surgery::WithMetaWords(valid, kMaxSnapshotMemoryWords);
  EXPECT_TRUE(PeekSnapshotMeta(at_limit, &meta, &error)) << error;
  EXPECT_EQ(meta.memory_words, kMaxSnapshotMemoryWords);
  const std::vector<uint8_t> over_limit =
      image_surgery::WithMetaWords(valid, kMaxSnapshotMemoryWords + 1);
  EXPECT_FALSE(PeekSnapshotMeta(over_limit, &meta, &error));
}

// A well-formed image whose registry holds an ACL entry with brackets
// (7,1,1) instead of the call loop's gate brackets (1,1,7): every CRC
// accepts it, and restore refuses it with the section and the rings.
TEST(SnapshotImage, UnorderedBracketsAreRejected) {
  image_surgery::Parts parts = image_surgery::Split(MakeValidImage(MachineConfig{}));
  std::vector<uint8_t>& registry = parts.payload(image_surgery::kRegistrySection);
  // r1, r2, r3, then the u32 gate count of the `target` segment's ACL entry.
  const std::vector<uint8_t> gate_access = {1, 1, 7, 1, 0, 0, 0};
  const auto at = std::search(registry.begin(), registry.end(), gate_access.begin(),
                              gate_access.end());
  ASSERT_NE(at, registry.end());
  at[0] = 7;
  at[2] = 1;
  const std::vector<uint8_t> image = image_surgery::Join(parts);
  std::string error;
  ASSERT_TRUE(VerifySnapshot(image, &error)) << error;

  Machine target(MachineConfig{});
  const uint64_t untouched = FingerprintMachine(target);
  EXPECT_FALSE(RestoreSnapshot(image, &target, &error));
  EXPECT_NE(error.find("section 4: bracket rings 7,1,1 not ordered"), std::string::npos)
      << error;
  EXPECT_EQ(FingerprintMachine(target), untouched);
}

TEST(SnapshotImage, RestoreConfigTakesShapeFromImageAndEngineFromCaller) {
  SnapshotMeta meta;
  meta.memory_words = uint64_t{1} << 20;
  meta.mode = ProtectionMode::kFlags645;
  meta.quantum = 1234;
  meta.cycle_model.trap = 99;
  MachineConfig engine;
  engine.memory_words = 7;
  engine.quantum = 1;
  engine.fast_path = false;
  const MachineConfig config = RestoreConfig(meta, engine);
  EXPECT_EQ(config.memory_words, size_t{1} << 20);
  EXPECT_EQ(config.mode, ProtectionMode::kFlags645);
  EXPECT_EQ(config.quantum, 1234);
  EXPECT_EQ(config.cycle_model.trap, 99u);
  EXPECT_EQ(config.cycle_model.instruction_base, CycleModel{}.instruction_base);
  EXPECT_FALSE(config.fast_path);

  // An image restores into its RestoreConfig machine under any engine.
  const std::vector<uint8_t> image = MakeValidImage(MachineConfig{});
  std::string error;
  ASSERT_TRUE(PeekSnapshotMeta(image, &meta, &error)) << error;
  Machine restored(RestoreConfig(meta, engine));
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  EXPECT_FALSE(restored.config().fast_path);
}

// ---------------------------------------------------------------------------
// Clone, restore and live agree field by field, through the state visitor.
// ---------------------------------------------------------------------------

// An Io for the state visitor that flattens a state into one entry per
// field, so two states compare field by field — including any field a
// later change adds to a Visit.
class FlattenFields {
 public:
  static constexpr bool kDecodes = false;

  template <class T>
  void U8(const T& v) {
    Put(v);
  }
  template <class T>
  void U32(const T& v) {
    Put(v);
  }
  template <class T>
  void U64(const T& v) {
    Put(v);
  }
  template <class T>
  void I64(const T& v) {
    Put(v);
  }
  void Bool(bool v) { Put(v); }
  void Str(const std::string& s) { fields.push_back("'" + s + "'"); }
  void RingNo(Ring ring, const char*) { Put(ring); }
  template <class E>
  void Enum8(const E& e, uint64_t, const char*) {
    Put(e);
  }
  template <class E>
  void Enum32(const E& e, uint64_t, const char*) {
    Put(e);
  }
  void Count(size_t n, const char*) { Put(n); }
  template <class C, class Fn>
  void Seq(C& items, Fn&& fn) {
    Put(items.size());
    for (auto& item : items) {
      fn(item);
    }
  }
  template <class M, class Fn>
  void Map(M& map, Fn&& fn) {
    Put(map.size());
    for (auto& [key, value] : map) {
      fn(key, value);
    }
  }

  std::vector<std::string> fields;

 private:
  template <class T>
  void Put(const T& v) {
    fields.push_back(std::to_string(static_cast<uint64_t>(v)));
  }
};

// A machine's state, field by field. Host-only counters included: a clone
// and a restore carry them over exactly like every other counter.
std::vector<std::string> StateFields(const Machine& machine) {
  MachineState state = machine.CaptureState();
  FlattenFields flat;
  Visit(flat, state);
  return flat.fields;
}

void ExpectSameFields(const std::vector<std::string>& want, const std::vector<std::string>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "first difference at field " << i;
  }
}

TEST(Snapshot, CloneRestoreAndLiveStatesAreFieldIdentical) {
  for (const Guest& guest : kGuests) {
    for (const uint64_t cut : {700u, 2'500u, 6'000u}) {
      SCOPED_TRACE(std::string(guest.name) + " cut " + std::to_string(cut));
      const MachineConfig config;
      std::unique_ptr<Machine> live = guest.factory(config);
      ASSERT_NE(live, nullptr);
      live->Run(cut);

      std::unique_ptr<Machine> clone = Machine::CloneFrom(*live);
      ASSERT_NE(clone, nullptr);
      std::vector<uint8_t> image;
      std::string error;
      ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
      Machine restored(config);
      ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;

      const std::vector<std::string> want = StateFields(*live);
      ExpectSameFields(want, StateFields(*clone));
      ExpectSameFields(want, StateFields(restored));
    }
  }
  // The in-flight guest adds a fault stream, a stacked return gate and
  // pending I/O.
  std::unique_ptr<Machine> live = MakePinnedInFlightMachine();
  ASSERT_NE(live, nullptr);
  std::unique_ptr<Machine> clone = Machine::CloneFrom(*live);
  ASSERT_NE(clone, nullptr);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  Machine restored(MachineConfig{});
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  const std::vector<std::string> want = StateFields(*live);
  ExpectSameFields(want, StateFields(*clone));
  ExpectSameFields(want, StateFields(restored));
}

// The per-quantum audit findings are the machine's own host-side log:
// the image has no field for them, so a clone starts without them just
// as a restored machine does. The audit count travels with both.
TEST(Snapshot, CloneAndRestoreAgreeOnTheAuditLog) {
  MachineConfig config;
  config.quantum = 200;
  config.audit_every_quantum = true;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  // A malformed descriptor in the process's virtual memory, which every
  // audit pass finds again and the log records once.
  const Process& process = *live->supervisor().processes().front();
  Sdw malformed;
  malformed.present = true;
  malformed.bound = 4;
  malformed.access.flags = {true, false, false};
  malformed.access.brackets = Brackets{5, 2, 1};
  DescriptorSegment(&live->memory(), process.dbr).Store(100, malformed);
  live->Run(3'000);
  ASSERT_FALSE(live->audit_findings().empty());

  std::unique_ptr<Machine> clone = Machine::CloneFrom(*live);
  ASSERT_NE(clone, nullptr);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  Machine restored(config);
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;

  const auto findings = [](const Machine& machine) {
    std::vector<std::string> lines;
    for (const AuditFinding& finding : machine.audit_findings()) {
      lines.push_back(finding.ToString());
    }
    return lines;
  };
  EXPECT_EQ(findings(*clone), findings(restored));
  EXPECT_TRUE(findings(*clone).empty());
  EXPECT_EQ(clone->audit_runs(), live->audit_runs());
  EXPECT_EQ(restored.audit_runs(), live->audit_runs());

  // Run on, both copies log the same new findings.
  ASSERT_TRUE(clone->Run(100'000'000).idle);
  ASSERT_TRUE(restored.Run(100'000'000).idle);
  EXPECT_FALSE(findings(*clone).empty());
  EXPECT_EQ(findings(*clone), findings(restored));
  EXPECT_EQ(clone->audit_runs(), restored.audit_runs());
}

// ---------------------------------------------------------------------------
// Hostile images that pass every CRC reach the section decoders.
// ---------------------------------------------------------------------------

// Seeded byte flips and truncations of one section's payload, re-CRC'd so
// every checksum accepts the image. Each image must either restore and
// run, or be rejected with an error naming the damaged section (or, for
// meta, the machine shape it no longer matches) and leave the target
// machine untouched.
TEST(SnapshotImage, ReCrcdPayloadMutationsEndInStructuredErrors) {
  using GuestImage = std::pair<const char*, std::vector<uint8_t>>;
  std::vector<GuestImage> images;
  for (const Guest& guest : kGuests) {
    std::unique_ptr<Machine> live = guest.factory(MachineConfig{});
    ASSERT_NE(live, nullptr);
    live->Run(2'500);
    std::vector<uint8_t> image;
    std::string error;
    ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
    images.emplace_back(guest.name, std::move(image));
  }
  {
    std::unique_ptr<Machine> live = MakePinnedInFlightMachine();
    ASSERT_NE(live, nullptr);
    std::vector<uint8_t> image;
    std::string error;
    ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
    images.emplace_back("in-flight", std::move(image));
  }

  constexpr int kMutationsPerSection = 30;
  int restored_count = 0;
  int rejected_count = 0;
  for (const auto& [name, pristine] : images) {
    const image_surgery::Parts parts = image_surgery::Split(pristine);
    for (const image_surgery::Section& section : parts.sections) {
      Xorshift rng(0x5EC7u * 131 + section.id);
      for (int trial = 0; trial < kMutationsPerSection; ++trial) {
        SCOPED_TRACE(std::string(name) + " section " + std::to_string(section.id) + " trial " +
                     std::to_string(trial));
        image_surgery::Parts mutated = parts;
        std::vector<uint8_t>& payload = mutated.payload(section.id);
        if (rng.Below(3) == 0 && !payload.empty()) {
          payload.resize(rng.Below(payload.size()));
        } else {
          for (uint64_t flips = 1 + rng.Below(3); flips > 0 && !payload.empty(); --flips) {
            payload[rng.Below(payload.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
          }
        }
        const std::vector<uint8_t> image = image_surgery::Join(mutated);

        Machine target(MachineConfig{});
        const uint64_t untouched = FingerprintMachine(target);
        std::string error;
        if (RestoreSnapshot(image, &target, &error)) {
          target.Run(20'000);
          ++restored_count;
          continue;
        }
        ++rejected_count;
        const std::string prefix = "section " + std::to_string(section.id) + ": ";
        const bool names_section = error.rfind(prefix, 0) == 0;
        const bool meta_shape = section.id == image_surgery::kMetaSection &&
                                error.find("does not match") != std::string::npos;
        EXPECT_TRUE(names_section || meta_shape) << error;
        EXPECT_EQ(FingerprintMachine(target), untouched);
      }
    }
  }
  // Both outcomes occur, so the decoders past the CRCs were reached.
  EXPECT_GT(restored_count, 0);
  EXPECT_GT(rejected_count, 0);
}

TEST(Snapshot, FileRoundTripAndFileErrors) {
  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  const std::string path = testing::TempDir() + "/snapshot_test.image";
  std::string error;
  ASSERT_TRUE(SaveSnapshotFile(*live, path, &error)) << error;
  Machine restored(config);
  ASSERT_TRUE(RestoreSnapshotFile(path, &restored, &error)) << error;
  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));

  error.clear();
  EXPECT_FALSE(RestoreSnapshotFile("/nonexistent/dir/image", &restored, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Snapshot fault-injection sites.
// ---------------------------------------------------------------------------

TEST(Snapshot, WriteFaultSiteCorruptsTheImage) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 7;
  fault.rate_ppm[static_cast<size_t>(FaultSite::kSnapshotWrite)] = 1'000'000;
  FaultInjector injector(fault);

  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error, &injector)) << error;
  // The certain-rate write fault flipped one bit; verification catches it.
  EXPECT_FALSE(VerifySnapshot(image, &error));
  EXPECT_EQ(injector.counts()[static_cast<size_t>(FaultSite::kSnapshotWrite)], 1u);
}

TEST(Snapshot, ReadFaultSiteRejectsOnTheWayIn) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 7;
  fault.rate_ppm[static_cast<size_t>(FaultSite::kSnapshotRead)] = 1'000'000;
  FaultInjector injector(fault);

  const MachineConfig config;
  const std::vector<uint8_t> image = MakeValidImage(config);
  Machine target(config);
  ASSERT_TRUE(target.ok());
  const uint64_t untouched = FingerprintMachine(target);
  std::string error;
  EXPECT_FALSE(RestoreSnapshot(image.data(), image.size(), &target, &error, &injector));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(FingerprintMachine(target), untouched);
  // The original buffer is never modified — the fault damages a copy.
  EXPECT_TRUE(VerifySnapshot(image, &error)) << error;
}

TEST(Snapshot, DisabledFaultSitesConsumeNoRandomness) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 7;  // all rates zero
  FaultInjector injector(fault);
  const uint64_t s0 = injector.rng().state(0);
  const uint64_t s1 = injector.rng().state(1);

  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error, &injector)) << error;
  EXPECT_TRUE(VerifySnapshot(image, &error)) << error;
  EXPECT_EQ(injector.rng().state(0), s0);
  EXPECT_EQ(injector.rng().state(1), s1);
}

// The injector's own stream survives the round trip: a machine with live
// fault injection restored from a snapshot continues the exact stream.
TEST(Snapshot, FaultInjectorStreamRoundTrips) {
  MachineConfig config;
  config.fault = FaultConfig::Uniform(/*seed=*/42, /*rate_ppm=*/2'000);
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(2'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;

  // Restore into a machine built with NO injector: the image reinstates
  // configuration, RNG position, counts, and the event log.
  Machine restored(MachineConfig{});
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.fault_injector(), nullptr);
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  ASSERT_NE(restored.fault_injector(), nullptr);
  ASSERT_NE(live->fault_injector(), nullptr);
  EXPECT_EQ(restored.fault_injector()->sequence(), live->fault_injector()->sequence());

  live->Run(100'000'000);
  restored.Run(100'000'000);
  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));
  EXPECT_EQ(restored.fault_injector()->sequence(), live->fault_injector()->sequence());
  EXPECT_EQ(restored.fault_injector()->counts(), live->fault_injector()->counts());
}

// ---------------------------------------------------------------------------
// Counters::ForEachField completeness guard: the snapshot codec (and the
// fingerprint) visit every scalar field. If someone adds a counter
// without updating ForEachField, this breaks.
// ---------------------------------------------------------------------------

TEST(Counters, ForEachFieldVisitsEveryScalarField) {
  size_t visited = 0;
  Counters::ForEachField([&visited](const char*, uint64_t Counters::*, bool) { ++visited; });
  EXPECT_EQ(sizeof(Counters), visited * sizeof(uint64_t) + sizeof(Counters{}.traps))
      << "Counters has a field ForEachField does not visit (or vice versa); "
         "update Counters::ForEachField in src/trace/counters.h";
}

}  // namespace
}  // namespace rings

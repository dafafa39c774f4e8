// Figure 7: EAP-type instructions (no validation) and the advance check
// for transfer instructions other than CALL/RETURN.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "tests/testutil.h"

namespace rings {
namespace {

TEST(Epp, LoadsPointerRegisterFromTpr) {
  BareMachine m;
  const Segno data = m.AddSegment({0}, MakeDataSegment(4, 4));
  const Segno code = m.AddCode({MakeInsPrReg(Opcode::kEpp, 2, 5, 7)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, data, 10);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().pr[5], (PointerRegister{4, data, 17}));
}

TEST(Epp, NoAccessValidationPerformed) {
  // "The operand is not referenced, so no access validation is required"
  // — EPP may form an address into a segment the ring cannot touch.
  BareMachine m;
  const Segno secret = m.AddSegment({0}, MakeDataSegment(0, 0));  // ring-0 only
  const Segno code = m.AddCode({MakeInsPrReg(Opcode::kEpp, 2, 5, 0)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, secret, 0);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().pr[5].segno, secret);
  EXPECT_EQ(m.cpu().counters().checks_read, 0u);
  EXPECT_EQ(m.cpu().counters().checks_write, 0u);
}

TEST(Epp, CarriesEffectiveRingIntoPr) {
  // Loading a PR through a raised-ring pointer captures the raised ring —
  // "the proper effective ring number will automatically be put in
  // PR1.RING."
  BareMachine m;
  const Segno data = m.AddSegment({0}, MakeDataSegment(7, 7));
  const Segno code = m.AddCode({MakeInsPrReg(Opcode::kEpp, 2, 1, 3)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, /*ring=*/6, data, 0);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().pr[1].ring, 6);
  EXPECT_EQ(m.cpu().regs().pr[1].wordno, 3u);
}

TEST(Spp, StoresPointerWithItsRing) {
  BareMachine m;
  const Segno data = m.AddSegment({0, 0}, MakeDataSegment(4, 4));
  const Segno code = m.AddCode({MakeInsPrReg(Opcode::kSpp, 2, 3, 1)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, data, 0);
  m.SetPr(3, 6, 42, 17);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  const IndirectWord iw = DecodeIndirectWord(m.Peek(data, 1));
  EXPECT_EQ(iw.ring, 6);  // the PR's validation level is preserved
  EXPECT_EQ(iw.segno, 42u);
  EXPECT_EQ(iw.wordno, 17u);
  EXPECT_FALSE(iw.indirect);
}

TEST(Spp, WriteValidated) {
  BareMachine m;
  const Segno data = m.AddSegment({0}, MakeReadOnlyDataSegment(4));
  const Segno code = m.AddCode({MakeInsPrReg(Opcode::kSpp, 2, 3, 0)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, data, 0);
  EXPECT_EQ(m.StepTrap(), TrapCause::kWriteViolation);
}

TEST(Tra, TransfersWithinSegment) {
  BareMachine m;
  const Segno code = m.AddCode(
      {MakeIns(Opcode::kTra, 2), MakeIns(Opcode::kLdai, 1), MakeIns(Opcode::kLdai, 2)},
      UserCode());
  m.SetIpr(4, code, 0);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().ipr.wordno, 2u);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().a, 2u);
}

TEST(Tra, CrossSegmentSameRingNoGateNeeded) {
  // "On intersegment transfers of control within the same ring, the gate
  // restriction can be bypassed by using a normal transfer instruction."
  BareMachine m;
  const Segno lib = m.AddCode({MakeIns(Opcode::kLdai, 55)},
                              MakeProcedureSegment(0, 7, 7, /*gate_count=*/0));
  const Segno code = m.AddCode({MakeInsPr(Opcode::kTra, 2, 0)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, lib, 0);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().ipr.segno, lib);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().a, 55u);
}

TEST(Tra, AdvanceCheckCatchesBadTarget) {
  // The advance check fires while the transferring instruction is still
  // identifiable — IPR in the trap state addresses the TRA, not the
  // target.
  BareMachine m;
  const Segno other = m.AddCode({MakeIns(Opcode::kNop)}, MakeProcedureSegment(0, 0));
  const Segno code = m.AddCode({MakeInsPr(Opcode::kTra, 2, 0)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, other, 0);
  ASSERT_EQ(m.StepTrap(), TrapCause::kExecuteViolation);
  EXPECT_EQ(m.cpu().trap_state().regs.ipr.segno, code);
  EXPECT_EQ(m.cpu().trap_state().regs.ipr.wordno, 0u);
}

TEST(Tra, RaisedEffectiveRingRejected) {
  // A transfer through a pointer with a higher ring number cannot proceed:
  // non-CALL transfers never change the ring of execution (Figure 7).
  BareMachine m;
  const Segno lib = m.AddCode({MakeIns(Opcode::kNop)}, MakeProcedureSegment(0, 7));
  const Segno code = m.AddCode({MakeInsPr(Opcode::kTra, 2, 0)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, /*ring=*/6, lib, 0);
  EXPECT_EQ(m.StepTrap(), TrapCause::kTransferRingViolation);
}

TEST(Tra, BoundsChecked) {
  BareMachine m;
  const Segno code = m.AddCode({MakeIns(Opcode::kTra, 99)}, UserCode());
  m.SetIpr(4, code, 0);
  EXPECT_EQ(m.StepTrap(), TrapCause::kBoundsViolation);
}

// gtest names each case after the raw bytes of its parameter, so the padding
// is spelled out and zeroed: every byte is defined and the names are stable.
struct CondCase {
  CondCase(Opcode o, int64_t value, bool t) : op(o), a(value), taken(t) {}
  Opcode op;
  uint8_t pad0[7] = {};
  int64_t a;
  bool taken;
  uint8_t pad1[7] = {};
};
static_assert(std::has_unique_object_representations_v<CondCase>);

class ConditionalTransfer : public ::testing::TestWithParam<CondCase> {};

TEST_P(ConditionalTransfer, TakenAndNotTaken) {
  const CondCase& c = GetParam();
  BareMachine m;
  const Segno code = m.AddCode(
      {MakeIns(c.op, 2), MakeIns(Opcode::kNop), MakeIns(Opcode::kNop)}, UserCode());
  m.SetIpr(4, code, 0);
  m.cpu().regs().a = static_cast<Word>(c.a);
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().ipr.wordno, c.taken ? 2u : 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConditions, ConditionalTransfer,
    ::testing::Values(CondCase{Opcode::kTze, 0, true}, CondCase{Opcode::kTze, 1, false},
                      CondCase{Opcode::kTnz, 0, false}, CondCase{Opcode::kTnz, 1, true},
                      CondCase{Opcode::kTmi, -1, true}, CondCase{Opcode::kTmi, 0, false},
                      CondCase{Opcode::kTmi, 5, false}, CondCase{Opcode::kTpl, 0, true},
                      CondCase{Opcode::kTpl, 5, true}, CondCase{Opcode::kTpl, -1, false}));

TEST(ConditionalNotTaken, NoAdvanceCheck) {
  // A conditional transfer that is not taken performs no transfer and so
  // cannot trap on its (bad) target.
  BareMachine m;
  const Segno other = m.AddCode({MakeIns(Opcode::kNop)}, MakeProcedureSegment(0, 0));
  const Segno code =
      m.AddCode({MakeInsPr(Opcode::kTze, 2, 0), MakeIns(Opcode::kNop)}, UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, other, 0);
  m.cpu().regs().a = 1;  // TZE not taken
  EXPECT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().ipr.wordno, 1u);
}

}  // namespace
}  // namespace rings

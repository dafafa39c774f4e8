#include "src/sup/audit.h"

#include <gtest/gtest.h>

#include "src/sys/machine.h"

namespace rings {
namespace {

std::vector<AuditFinding> Audit(Machine& machine) {
  return AuditProtectionState(&machine.memory(), machine.registry(), machine.supervisor());
}

TEST(Audit, FreshMachineIsClean) {
  Machine machine;
  machine.Login("alice");
  machine.Login("bob");
  const auto findings = Audit(machine);
  for (const auto& f : findings) {
    ADD_FAILURE() << f.ToString();
  }
  EXPECT_TRUE(AuditClean(findings));
}

TEST(Audit, LoadedProgramsStayClean) {
  Machine machine;
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["d"] = AccessControlList::Public(MakeDataSegment(2, 5));
  ASSERT_TRUE(machine.LoadProgramSource(".segment main\nstart: nop\n.segment d\n.word 1\n", acls));
  Process* p = machine.Login("alice");
  machine.supervisor().InitiateAll(p);
  EXPECT_TRUE(AuditClean(Audit(machine)));
}

TEST(Audit, DetectsMalformedSdw) {
  Machine machine;
  Process* p = machine.Login("alice");
  DescriptorSegment dseg(&machine.memory(), p->dbr);
  Sdw sdw;
  sdw.present = true;
  sdw.base = 0;
  sdw.bound = 4;
  sdw.access.flags = {true, false, false};
  sdw.access.brackets = Brackets{5, 2, 1};  // malformed
  dseg.Store(100, sdw);
  const auto findings = Audit(machine);
  EXPECT_FALSE(AuditClean(findings));
  bool found = false;
  for (const auto& f : findings) {
    found |= f.segno == 100 && f.message.find("malformed") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Audit, DetectsExecutableStack) {
  Machine machine;
  Process* p = machine.Login("alice");
  DescriptorSegment dseg(&machine.memory(), p->dbr);
  Sdw sdw = *dseg.Fetch(kStackBaseSegno + 4);
  sdw.access.flags.execute = true;
  dseg.Store(kStackBaseSegno + 4, sdw);
  const auto findings = Audit(machine);
  EXPECT_FALSE(AuditClean(findings));
}

TEST(Audit, DetectsWrongStackBrackets) {
  Machine machine;
  Process* p = machine.Login("alice");
  DescriptorSegment dseg(&machine.memory(), p->dbr);
  Sdw sdw = *dseg.Fetch(kStackBaseSegno + 5);
  sdw.access.brackets = Brackets{7, 7, 7};  // ring-5 stack writable from 6-7
  dseg.Store(kStackBaseSegno + 5, sdw);
  EXPECT_FALSE(AuditClean(Audit(machine)));
}

TEST(Audit, DetectsDescriptorSegmentExposure) {
  Machine machine;
  Process* victim = machine.Login("alice");
  Process* attacker = machine.Login("mallory");
  // A rogue SDW in mallory's VM mapping alice's descriptor segment.
  DescriptorSegment dseg(&machine.memory(), attacker->dbr);
  Sdw sdw;
  sdw.present = true;
  sdw.base = victim->dbr.base;
  sdw.bound = 16;
  sdw.access = MakeDataSegment(4, 4);
  dseg.Store(200, sdw);
  const auto findings = Audit(machine);
  EXPECT_FALSE(AuditClean(findings));
  bool found = false;
  for (const auto& f : findings) {
    found |= f.message.find("descriptor-segment storage") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Audit, DetectsSharedStackStorage) {
  Machine machine;
  Process* a = machine.Login("alice");
  Process* b = machine.Login("bob");
  // Point bob's ring-4 stack at alice's.
  DescriptorSegment dseg_a(&machine.memory(), a->dbr);
  DescriptorSegment dseg_b(&machine.memory(), b->dbr);
  Sdw stolen = *dseg_a.Fetch(kStackBaseSegno + 4);
  dseg_b.Store(kStackBaseSegno + 4, stolen);
  const auto findings = Audit(machine);
  EXPECT_FALSE(AuditClean(findings));
  bool found = false;
  for (const auto& f : findings) {
    found |= f.message.find("stack storage shared") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Audit, WarnsOnGateExtensionWithoutGates) {
  Machine machine;
  std::map<std::string, AccessControlList> acls;
  // Gate extension to ring 5, but the segment declares no gates.
  acls["odd"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 5, 0));
  ASSERT_TRUE(machine.LoadProgramSource(".segment odd\n nop\n", acls));
  Process* p = machine.Login("alice");
  machine.supervisor().InitiateAll(p);
  const auto findings = Audit(machine);
  EXPECT_TRUE(AuditClean(findings));  // warning, not error
  bool warned = false;
  for (const auto& f : findings) {
    warned |= f.severity == AuditSeverity::kWarning &&
              f.message.find("no gates") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

TEST(Audit, WarnsOnWritableExecutable) {
  Machine machine;
  std::map<std::string, AccessControlList> acls;
  SegmentAccess wx = MakeProcedureSegment(4, 4);
  wx.flags.write = true;
  acls["wx"] = AccessControlList::Public(wx);
  ASSERT_TRUE(machine.LoadProgramSource(".segment wx\n nop\n", acls));
  Process* p = machine.Login("alice");
  machine.supervisor().InitiateAll(p);
  bool warned = false;
  for (const auto& f : Audit(machine)) {
    warned |= f.severity == AuditSeverity::kWarning &&
              f.message.find("writable and executable") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

TEST(Audit, WarnsOnSoleOccupantViolation) {
  // Two different gated subsystems protected by ring 3 in the same
  // process's virtual memory.
  Machine machine;
  std::map<std::string, AccessControlList> acls;
  acls["subsys_a"] = AccessControlList::Public(MakeProcedureSegment(3, 3, 5, 1));
  acls["subsys_b"] = AccessControlList::Public(MakeProcedureSegment(3, 3, 5, 1));
  ASSERT_TRUE(machine.LoadProgramSource(
      ".segment subsys_a\n.gates 1\n nop\n.segment subsys_b\n.gates 1\n nop\n", acls));
  Process* p = machine.Login("alice");
  machine.supervisor().InitiateAll(p);
  const auto findings = Audit(machine);
  EXPECT_TRUE(AuditClean(findings));  // warning, not error
  bool warned = false;
  for (const auto& f : findings) {
    warned |= f.message.find("sole-occupant") != std::string::npos;
  }
  EXPECT_TRUE(warned);

  // One subsystem per ring: no warning.
  Machine machine2;
  std::map<std::string, AccessControlList> acls2;
  acls2["subsys_a"] = AccessControlList::Public(MakeProcedureSegment(3, 3, 5, 1));
  acls2["subsys_b"] = AccessControlList::Public(MakeProcedureSegment(2, 2, 5, 1));
  EXPECT_TRUE(machine2.LoadProgramSource(
      ".segment subsys_a\n.gates 1\n nop\n.segment subsys_b\n.gates 1\n nop\n", acls2));
  Process* p2 = machine2.Login("alice");
  machine2.supervisor().InitiateAll(p2);
  for (const auto& f :
       AuditProtectionState(&machine2.memory(), machine2.registry(), machine2.supervisor())) {
    EXPECT_EQ(f.message.find("sole-occupant"), std::string::npos) << f.ToString();
  }
}

TEST(Audit, RegistryAclValidation) {
  Machine machine;
  machine.registry().CreateSegment("bad", 4, AccessControlList{});
  RegisteredSegment* seg = machine.registry().FindMutable("bad");
  AclEntry entry;
  entry.user = "alice";
  entry.access.brackets = Brackets{6, 3, 1};
  seg->acl.Add(entry);
  EXPECT_FALSE(AuditClean(Audit(machine)));
}

// A malformed descriptor stays malformed, so every per-quantum pass finds
// it again; the machine's log records it once and still counts each pass.
TEST(Audit, PersistentFindingIsRecordedOnce) {
  Machine machine(MachineConfig{.quantum = 50, .audit_every_quantum = true});
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counter"] = AccessControlList::Public(MakeDataSegment(4, 4));
  ASSERT_TRUE(machine.LoadProgramSource(R"(
        .segment main
start:  aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   start
        mme   0
limit:  .word 200
cnt:    .its  4, counter, 0

        .segment counter
        .word 0
)",
                                        acls));
  Process* p = machine.Login("alice");
  machine.supervisor().InitiateAll(p);
  ASSERT_TRUE(machine.Start(p, "main", "start", kUserRing));
  Sdw malformed;
  malformed.present = true;
  malformed.bound = 4;
  malformed.access.flags = {true, false, false};
  malformed.access.brackets = Brackets{5, 2, 1};
  DescriptorSegment(&machine.memory(), p->dbr).Store(100, malformed);

  ASSERT_TRUE(machine.Run().idle);
  EXPECT_GE(machine.audit_runs(), 10u);
  ASSERT_EQ(machine.audit_findings().size(), 1u);
  EXPECT_EQ(machine.audit_findings()[0].pid, p->pid);
  EXPECT_EQ(machine.audit_findings()[0].segno, 100u);
}

TEST(Audit, FindingToString) {
  const AuditFinding f{AuditSeverity::kError, 3, 17, "boom"};
  const std::string text = f.ToString();
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("pid=3"), std::string::npos);
  EXPECT_NE(text.find("segno=17"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
}

}  // namespace
}  // namespace rings

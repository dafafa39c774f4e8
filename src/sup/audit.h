// Protection-configuration auditor. The paper's third criterion for
// access-control mechanisms is simplicity: "for a set of access control
// mechanisms to be accepted there must be confidence that no way exists
// to circumvent it." The ring model is simple enough that a machine's
// entire protection state can be checked mechanically — this module does
// so, verifying every invariant the supervisor is supposed to maintain:
//
//   * every present SDW is well-formed (R1 <= R2 <= R3, gate count within
//     bound, bound within the architectural maximum);
//   * stack segment n of each process has read/write brackets ending at
//     ring n and is not executable;
//   * stack storage is private: no two processes share stack frames;
//   * no process's virtual memory exposes its own (or any) descriptor
//     segment's storage through a writable SDW — a process that can write
//     SDWs owns the machine;
//   * segments with a nonempty gate extension actually declare gates;
//   * writable-and-executable segments are flagged (expressible only with
//     the degenerate overlap at R1, but worth eyes on).
//
// Returns findings rather than aborting, so it can run as a health check
// inside tests, tools, and long-lived simulations.
#ifndef SRC_SUP_AUDIT_H_
#define SRC_SUP_AUDIT_H_

#include <string>
#include <vector>

#include "src/sup/segment_registry.h"
#include "src/sup/supervisor.h"

namespace rings {

enum class AuditSeverity {
  kError,    // an exploitable or corrupt configuration
  kWarning,  // legal but suspicious
};

struct AuditFinding {
  AuditSeverity severity = AuditSeverity::kError;
  int pid = 0;          // 0 = system-wide
  Segno segno = 0;
  std::string message;

  bool operator==(const AuditFinding&) const = default;
  std::string ToString() const;
};

// Audits every process's virtual memory plus the registry. `memory` must
// be the store the processes' DBRs refer to.
std::vector<AuditFinding> AuditProtectionState(PhysicalMemory* memory,
                                               const SegmentRegistry& registry,
                                               const Supervisor& supervisor);

// Convenience: true when no kError findings exist.
bool AuditClean(const std::vector<AuditFinding>& findings);

}  // namespace rings

#endif  // SRC_SUP_AUDIT_H_

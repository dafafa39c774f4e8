// The system-wide registry of on-line segments. "On-line storage is
// organized as a collection of segments of information. A process can
// reference a segment of on-line storage only if the segment is first
// added to the virtual memory of the process" — that addition (initiation)
// happens in src/sup/supervisor.cc; this registry owns the segments'
// storage, names, gate counts, and access control lists.
//
// Segment numbering: each registered segment is assigned a global segment
// number (>= kFirstSharedSegno) used identically in every process's
// descriptor segment, so a single segment can be part of several virtual
// memories at the same time while pointer words (.its) resolve uniformly.
// (Real Multics used per-process numbering with dynamic linking; the
// global numbering is a documented simplification that does not affect the
// access-control mechanisms under study.)
#ifndef SRC_SUP_SEGMENT_REGISTRY_H_
#define SRC_SUP_SEGMENT_REGISTRY_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/kasm/program.h"
#include "src/mem/physical_memory.h"
#include "src/sup/acl.h"

namespace rings {

// An unsnapped dynamic link: the symbolic target of a .link word, resolved
// by the supervisor on first reference.
struct LinkTarget {
  std::string segment;
  std::string symbol;  // empty = use offset directly
  int64_t offset = 0;
  Ring ring = 0;
  bool indirect = false;
};

struct RegisteredSegment {
  std::string name;
  Segno segno = 0;
  // Unpaged: address of word 0. Paged: address of the page table.
  AbsAddr base = 0;
  bool paged = false;
  uint64_t bound = 0;
  uint32_t gate_count = 0;
  AccessControlList acl;
  std::map<std::string, Wordno> symbols;
  // Link table: index = the wordno field of the fault-tagged word.
  std::vector<LinkTarget> links;
};

class SegmentRegistry {
 public:
  explicit SegmentRegistry(PhysicalMemory* memory) : memory_(memory) {}

  // Creates a zero-filled data segment. Returns nullopt on exhaustion.
  std::optional<Segno> CreateSegment(const std::string& name, uint64_t words,
                                     AccessControlList acl);

  // Creates a segment initialized with `contents` (extra_zero additional
  // zero words appended).
  std::optional<Segno> CreateSegmentWithContents(const std::string& name,
                                                 const std::vector<Word>& contents,
                                                 uint64_t extra_zero, uint32_t gate_count,
                                                 AccessControlList acl);

  // Creates a PAGED segment of `words` addressable words. When `populate`
  // is true every page is allocated (zero-filled) up front; otherwise all
  // pages are absent and references fault until the supervisor's demand
  // paging supplies them. `contents`, if nonempty, is copied into the
  // (populated) leading pages.
  std::optional<Segno> CreatePagedSegment(const std::string& name, uint64_t words,
                                          AccessControlList acl, bool populate,
                                          const std::vector<Word>& contents = {});

  // Registers every segment of an assembled program, applying the access
  // control list found in `acls` (by segment name; a missing entry is an
  // error). Resolves all .its patches afterwards. Returns false (with
  // `error` filled) on failure.
  bool LoadProgram(const Program& program, const std::map<std::string, AccessControlList>& acls,
                   std::string* error);

  const RegisteredSegment* Find(const std::string& name) const;
  const RegisteredSegment* FindBySegno(Segno segno) const;
  RegisteredSegment* FindMutable(const std::string& name);
  RegisteredSegment* FindMutableBySegno(Segno segno);

  // Resolves "segment$symbol" or "segment" to (segno, wordno).
  std::optional<SegAddr> Resolve(const std::string& segment, const std::string& symbol) const;

  Segno next_segno() const { return next_segno_; }
  const std::vector<RegisteredSegment>& segments() const { return segments_; }

  // The registry's table (segment storage itself lives in PhysicalMemory
  // and travels with the core store). ApplyState replaces the table
  // wholesale and rebuilds the by-name index from it.
  struct State {
    Segno next_segno = 0;
    std::vector<RegisteredSegment> segments;
  };
  State CaptureState() const { return State{next_segno_, segments_}; }
  void ApplyState(State state) {
    next_segno_ = state.next_segno;
    segments_ = std::move(state.segments);
    by_name_.clear();
    for (size_t i = 0; i < segments_.size(); ++i) {
      by_name_[segments_[i].name] = i;
    }
  }

 private:
  PhysicalMemory* memory_;
  Segno next_segno_ = 8;  // kFirstSharedSegno
  std::vector<RegisteredSegment> segments_;
  std::map<std::string, size_t> by_name_;
};

}  // namespace rings

#endif  // SRC_SUP_SEGMENT_REGISTRY_H_

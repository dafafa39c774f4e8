// Read-only pre-decoded program image. Machine::LoadProgram builds one
// per load: every word of every loaded segment decoded once, published
// immutable, and referenced by shared_ptr. Golden clones
// (Machine::CloneFrom, src/fleet) alias their golden's image through
// Cpu::CopyDecodeTablesFrom, so a fleet of N clones of one program pays
// the decode work and the decoded storage once per golden instead of once
// per machine.
//
// Ownership and the copy-on-write split: the image is immutable after
// publication — no generation stamps, no chain links, no per-machine
// statistics live in it. Everything mutable (insn/block/verdict caches,
// chain links, counters) stays private per Cpu. A machine consults the
// image only on the slow fetch path, and only after reading the live word
// from its own core store: the fetched word is compared against the
// image's raw word, and on any mismatch — self-modifying code, a snapped
// link, a loader patch — the machine falls back to live decode of its own
// word. That comparison IS the CoW split: a writer diverges from the
// image word-by-word without ever touching it, and its siblings keep
// reading the shared copy untouched.
#ifndef SRC_CPU_SHARED_DECODE_H_
#define SRC_CPU_SHARED_DECODE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/isa/instruction.h"
#include "src/mem/word.h"

namespace rings {

class SharedDecodeImage {
 public:
  struct Entry {
    Word raw = 0;            // the word the decode was made from
    Instruction ins{};       // its decode (valid only when decodable)
    bool decodable = false;  // false = the word raises kIllegalOpcode
  };
  struct Segment {
    std::string name;
    std::vector<Entry> words;
  };

  // Incremental construction, then publication. The Builder decodes each
  // word exactly once; after Publish the image is immutable and may be
  // shared across threads without synchronization.
  class Builder {
   public:
    Builder();
    void AddSegment(const std::string& name, const std::vector<Word>& words);
    // Freezes and returns the image; the Builder is spent afterwards.
    std::shared_ptr<const SharedDecodeImage> Publish();

   private:
    std::unique_ptr<SharedDecodeImage> image_;
  };

  const Segment* FindSegment(const std::string& name) const;
  // Host bytes held by the decoded tables (the storage golden clones
  // share; reported by bench_fleet).
  size_t bytes() const;

 private:
  SharedDecodeImage() = default;

  std::vector<Segment> segments_;
};

}  // namespace rings

#endif  // SRC_CPU_SHARED_DECODE_H_

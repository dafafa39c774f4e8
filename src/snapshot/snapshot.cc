#include "src/snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <utility>

#include "src/base/strings.h"
#include "src/core/ring.h"
#include "src/sys/machine_state.h"

namespace rings {

namespace {

// --------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — table-driven, no dependencies.
// --------------------------------------------------------------------------

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

constexpr uint32_t ByteSwap32(uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
}

// --------------------------------------------------------------------------
// Wire primitives: the two Ios of the state visitor (src/sys/machine_state.h)
// plus the hand-written meta and memory sections. The Writer appends each
// field byte-explicit little-endian. The Reader reads it back
// bounds-checked and checks it on the way in; its first failure latches
// with a structured message, later reads do nothing, and it never indexes
// past the buffer.
// --------------------------------------------------------------------------

class Writer {
 public:
  static constexpr bool kDecodes = false;

  template <class T>
  void U8(const T& v) {
    Put(static_cast<uint64_t>(v), 1);
  }
  template <class T>
  void U32(const T& v) {
    Put(static_cast<uint64_t>(v), 4);
  }
  template <class T>
  void U64(const T& v) {
    Put(static_cast<uint64_t>(v), 8);
  }
  template <class T>
  void I64(const T& v) {
    Put(static_cast<uint64_t>(static_cast<int64_t>(v)), 8);
  }
  void Bool(bool v) { Put(v ? 1 : 0, 1); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void RingNo(Ring ring, const char*) { U8(ring); }
  template <class E>
  void Enum8(const E& e, uint64_t, const char*) {
    U8(e);
  }
  template <class E>
  void Enum32(const E& e, uint64_t, const char*) {
    U32(e);
  }
  void Count(size_t n, const char*) { U32(n); }
  template <class C, class Fn>
  void Seq(C& items, Fn&& fn) {
    U64(items.size());
    for (auto& item : items) {
      fn(item);
    }
  }
  template <class M, class Fn>
  void Map(M& map, Fn&& fn) {
    U64(map.size());
    for (auto& [key, value] : map) {
      fn(key, value);
    }
  }

  std::vector<uint8_t>& buf() { return buf_; }

 private:
  void Put(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  static constexpr bool kDecodes = true;

  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <class T>
  void U8(T& v) {
    Get(&v, 1);
  }
  template <class T>
  void U32(T& v) {
    Get(&v, 4);
  }
  template <class T>
  void U64(T& v) {
    Get(&v, 8);
  }
  template <class T>
  void I64(T& v) {
    uint64_t raw = 0;
    if (Take(8, &raw)) {
      v = static_cast<T>(static_cast<int64_t>(raw));
    }
  }
  void Bool(bool& v) {
    uint64_t raw = 0;
    if (Take(1, &raw)) {
      v = raw != 0;
    }
  }
  void Str(std::string& s) {
    uint64_t len = 0;
    if (!Take(8, &len)) {
      return;
    }
    if (len > size_ - pos_) {
      Fail(StrFormat("string length %llu exceeds remaining payload",
                     static_cast<unsigned long long>(len)));
      return;
    }
    s.assign(reinterpret_cast<const char*>(data_ + pos_), static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
  }
  void RingNo(Ring& ring, const char* what) {
    uint64_t raw = 0;
    if (Take(1, &raw) && InRange(raw, kRingCount, what)) {
      ring = static_cast<Ring>(raw);
    }
  }
  template <class E>
  void Enum8(E& e, uint64_t count, const char* what) {
    uint64_t raw = 0;
    if (Take(1, &raw) && InRange(raw, count, what)) {
      e = static_cast<E>(raw);
    }
  }
  template <class E>
  void Enum32(E& e, uint64_t count, const char* what) {
    uint64_t raw = 0;
    if (Take(4, &raw) && InRange(raw, count, what)) {
      e = static_cast<E>(raw);
    }
  }
  void Count(size_t n, const char* what) {
    uint64_t raw = 0;
    if (Take(4, &raw) && raw != n) {
      Fail(StrFormat("%s %llu does not match this build's %zu", what,
                     static_cast<unsigned long long>(raw), n));
    }
  }
  // Elements are appended one at a time as they decode, so a hostile
  // count costs no more than the payload bytes that back it.
  template <class C, class Fn>
  void Seq(C& items, Fn&& fn) {
    uint64_t count = 0;
    U64(count);
    for (uint64_t i = 0; i < count && ok_; ++i) {
      fn(items.emplace_back());
    }
  }
  template <class M, class Fn>
  void Map(M& map, Fn&& fn) {
    uint64_t count = 0;
    U64(count);
    for (uint64_t i = 0; i < count && ok_; ++i) {
      typename M::key_type key{};
      typename M::mapped_type value{};
      fn(key, value);
      map[std::move(key)] = value;
    }
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  bool AtEnd() const { return !ok_ || pos_ == size_; }

  void Fail(std::string message) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(message);
    }
  }

 private:
  bool Take(int bytes, uint64_t* out) {
    if (!ok_) {
      return false;
    }
    if (size_ - pos_ < static_cast<size_t>(bytes)) {
      Fail("payload truncated");
      return false;
    }
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    *out = v;
    return true;
  }
  template <class T>
  void Get(T* v, int bytes) {
    uint64_t raw = 0;
    if (Take(bytes, &raw)) {
      *v = static_cast<T>(raw);
    }
  }
  bool InRange(uint64_t raw, uint64_t count, const char* what) {
    if (raw < count) {
      return true;
    }
    Fail(StrFormat("%s %llu out of range", what, static_cast<unsigned long long>(raw)));
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

// --------------------------------------------------------------------------
// Image layout.
//
// Header (16 bytes): magic u32, version u32, section count u32, CRC-32 of
// the first 12 bytes. Then `section count` sections, each framed as
// id u32, payload length u64, payload CRC-32 u32, payload bytes. No
// padding, no trailing bytes.
// --------------------------------------------------------------------------

enum class Section : uint32_t {
  kMeta = 1,
  kMemory = 2,
  kCpu = 3,
  kRegistry = 4,
  kSupervisor = 5,
  kTrace = 6,
  kFault = 7,
  kDevice = 8,
};
constexpr uint32_t kNumSections = 8;
constexpr size_t kHeaderBytes = 16;
constexpr size_t kSectionFrameBytes = 4 + 8 + 4;

void AppendSection(std::vector<uint8_t>* image, Section id, const std::vector<uint8_t>& payload) {
  Writer frame;
  frame.U32(static_cast<uint32_t>(id));
  frame.U64(payload.size());
  frame.U32(Crc32(payload.data(), payload.size()));
  image->insert(image->end(), frame.buf().begin(), frame.buf().end());
  image->insert(image->end(), payload.begin(), payload.end());
}

struct SectionSpan {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool present = false;
};

// Header + section-table walk shared by VerifySnapshot and the decoders.
// Fills `spans` (indexed by section id - 1) when non-null.
bool WalkImage(const uint8_t* data, size_t size, std::array<SectionSpan, kNumSections>* spans,
               std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (size < kHeaderBytes) {
    return fail(StrFormat("image truncated: %zu bytes, header needs %zu", size, kHeaderBytes));
  }
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint32_t header_crc = 0;
  Reader header(data, kHeaderBytes);
  header.U32(magic);
  header.U32(version);
  header.U32(section_count);
  header.U32(header_crc);
  if (magic != kSnapshotMagic) {
    if (magic == ByteSwap32(kSnapshotMagic)) {
      return fail("wrong-endian image (magic is byte-swapped)");
    }
    return fail(StrFormat("bad magic 0x%08x (expected 0x%08x)", magic, kSnapshotMagic));
  }
  if (version != kSnapshotVersion) {
    return fail(StrFormat("unsupported snapshot version %u (expected %u)", version,
                          kSnapshotVersion));
  }
  if (header_crc != Crc32(data, 12)) {
    return fail("header CRC mismatch");
  }
  if (section_count != kNumSections) {
    return fail(StrFormat("unexpected section count %u (expected %u)", section_count,
                          kNumSections));
  }
  size_t pos = kHeaderBytes;
  for (uint32_t s = 0; s < section_count; ++s) {
    if (size - pos < kSectionFrameBytes) {
      return fail(StrFormat("image truncated in section table (section %u of %u)", s + 1,
                            section_count));
    }
    uint32_t id = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
    Reader frame(data + pos, kSectionFrameBytes);
    frame.U32(id);
    frame.U64(length);
    frame.U32(crc);
    pos += kSectionFrameBytes;
    if (id == 0 || id > kNumSections) {
      return fail(StrFormat("unknown section id %u", id));
    }
    if (length > size - pos) {
      return fail(StrFormat("section %u truncated: %llu payload bytes declared, %zu remain", id,
                            static_cast<unsigned long long>(length), size - pos));
    }
    if (crc != Crc32(data + pos, static_cast<size_t>(length))) {
      return fail(StrFormat("section %u payload CRC mismatch", id));
    }
    if (spans != nullptr) {
      SectionSpan& span = (*spans)[id - 1];
      if (span.present) {
        return fail(StrFormat("duplicate section id %u", id));
      }
      span = SectionSpan{data + pos, static_cast<size_t>(length), true};
    }
    pos += static_cast<size_t>(length);
  }
  if (pos != size) {
    return fail(StrFormat("trailing bytes after last section (%zu of %zu consumed)", pos, size));
  }
  if (spans != nullptr) {
    for (uint32_t id = 1; id <= kNumSections; ++id) {
      if (!(*spans)[id - 1].present) {
        return fail(StrFormat("missing section id %u", id));
      }
    }
  }
  return true;
}

// --------------------------------------------------------------------------
// Sections. Meta and memory lie outside MachineState and are coded here
// (memory by hand); each of the six machine-state sections is the state
// visitor's walk of one part of MachineState.
// --------------------------------------------------------------------------

template <class Io>
void Visit(Io& io, SnapshotMeta& meta) {
  io.U64(meta.memory_words);
  if constexpr (Io::kDecodes) {
    if (meta.memory_words > kMaxSnapshotMemoryWords) {
      io.Fail(StrFormat("implausible store size %llu words",
                        static_cast<unsigned long long>(meta.memory_words)));
    }
  }
  io.Enum8(meta.mode, static_cast<uint64_t>(ProtectionMode::kFlags645) + 1, "protection mode");
  io.I64(meta.quantum);
  io.I64(meta.trap_storm_limit);
  CycleModel& cm = meta.cycle_model;
  io.U64(cm.instruction_base);
  io.U64(cm.memory_ref);
  io.U64(cm.sdw_fetch);
  io.U64(cm.access_check);
  io.U64(cm.trap);
  io.U64(cm.rett);
  io.U64(cm.supervisor_step);
  io.U64(cm.io_latency);
}

// The machine-state sections in image order, each with its part.
template <class Fn>
bool ForEachStateSection(MachineState& state, Fn&& fn) {
  return fn(Section::kCpu, state.cpu) && fn(Section::kRegistry, state.registry) &&
         fn(Section::kSupervisor, state.supervisor) && fn(Section::kTrace, state.trace) &&
         fn(Section::kFault, state.fault) && fn(Section::kDevice, state.device);
}

template <class T>
void AppendVisited(std::vector<uint8_t>* image, Section id, T& part) {
  Writer w;
  Visit(w, part);
  AppendSection(image, id, w.buf());
}

bool SectionError(Reader* r, Section id, std::string* error) {
  if (r->ok() && !r->AtEnd()) {
    r->Fail("unconsumed payload bytes");
  }
  if (r->ok()) {
    return true;
  }
  if (error != nullptr) {
    *error = StrFormat("section %u: %s", static_cast<uint32_t>(id), r->error().c_str());
  }
  return false;
}

// Decodes one section into host structures; nothing is applied to a
// machine until every section has decoded, so a rejected image leaves
// the machine unchanged.
template <class T>
bool DecodeVisited(const SectionSpan& span, Section id, T* part, std::string* error) {
  Reader r(span.data, span.size);
  Visit(r, *part);
  return SectionError(&r, id, error);
}

void EncodeMemory(const PhysicalMemory& memory, std::vector<uint8_t>* image) {
  Writer w;
  w.U64(memory.allocated());
  w.U64(memory.fault_count());
  const std::optional<MemoryFault>& latched = memory.latched_fault();
  w.Bool(latched.has_value());
  if (latched.has_value()) {
    w.U64(latched->addr);
    w.Bool(latched->write);
  }
  // Zero-run RLE over the core store: the typical machine allocates a few
  // hundred K words out of a multi-megaword store, so images stay compact.
  // Read through the non-latching word() accessor — the COW store has no
  // contiguous backing array to hand out. A zero run steps over a whole
  // frame still aliasing the zero frame at once, so saving costs the
  // populated frames, not the store size; the runs (and bytes) are the
  // same as a word-by-word scan's.
  const size_t size = memory.size();
  w.U64(size);
  size_t i = 0;
  while (i < size) {
    size_t j = i;
    if (memory.word(i) == 0) {
      while (j < size) {
        if ((j & PhysicalMemory::kFrameMask) == 0 &&
            memory.aliases_zero_frame(j >> PhysicalMemory::kFrameShift)) {
          j = std::min(j + PhysicalMemory::kFrameWords, size);
        } else if (memory.word(j) == 0) {
          ++j;
        } else {
          break;
        }
      }
      w.U8(0);
      w.U64(j - i);
    } else {
      while (j < size && memory.word(j) != 0) {
        ++j;
      }
      w.U8(1);
      w.U64(j - i);
      for (size_t k = i; k < j; ++k) {
        w.U64(memory.word(k));
      }
    }
    i = j;
  }
  AppendSection(image, Section::kMemory, w.buf());
}

struct DecodedMemory {
  AbsAddr next_free = 0;
  uint64_t fault_count = 0;
  std::optional<MemoryFault> latched;
  PhysicalMemory::FrameList frames;  // only the frames holding a nonzero word
};

// Decodes the memory section of an image for a `machine_words`-word
// store. Only the frames holding a nonzero word are kept: each costs the
// image at least one 8-byte literal, so the decoded size follows the
// image's bytes, never the store size it declares.
bool DecodeMemory(const SectionSpan& span, uint64_t machine_words, DecodedMemory* out,
                  std::string* error) {
  Reader r(span.data, span.size);
  r.U64(out->next_free);
  r.U64(out->fault_count);
  bool latched = false;
  r.Bool(latched);
  if (latched) {
    MemoryFault& fault = out->latched.emplace();
    r.U64(fault.addr);
    r.Bool(fault.write);
  }
  uint64_t words = 0;
  r.U64(words);
  if (r.ok() && words > kMaxSnapshotMemoryWords) {
    r.Fail(StrFormat("implausible store size %llu words", static_cast<unsigned long long>(words)));
  }
  if (r.ok() && words != machine_words) {
    r.Fail(StrFormat("memory section carries %llu words for a %llu-word machine",
                     static_cast<unsigned long long>(words),
                     static_cast<unsigned long long>(machine_words)));
  }
  PhysicalMemory::FrameList& frames = out->frames;
  uint64_t filled = 0;
  while (r.ok() && filled < words) {
    uint8_t tag = 0;
    uint64_t count = 0;
    r.U8(tag);
    r.U64(count);
    if (!r.ok()) {
      break;
    }
    if (count == 0 || count > words - filled) {
      r.Fail(StrFormat("memory run of %llu words overflows the %llu-word store",
                       static_cast<unsigned long long>(count),
                       static_cast<unsigned long long>(words)));
      break;
    }
    if (tag == 0) {
      filled += count;  // unlisted frames restore as zero
    } else if (tag == 1) {
      for (const uint64_t end = filled + count; filled < end && r.ok(); ++filled) {
        Word value = 0;
        r.U64(value);
        if (value == 0) {
          continue;
        }
        const size_t frame = static_cast<size_t>(filled >> PhysicalMemory::kFrameShift);
        if (frames.frames.empty() || frames.frames.back() != frame) {
          frames.frames.push_back(frame);
          frames.words.resize(frames.words.size() + PhysicalMemory::kFrameWords, 0);
        }
        const size_t base = frames.words.size() - PhysicalMemory::kFrameWords;
        frames.words[base + (filled & PhysicalMemory::kFrameMask)] = value;
      }
    } else {
      r.Fail(StrFormat("unknown memory run tag %u", tag));
    }
  }
  return SectionError(&r, Section::kMemory, error);
}

}  // namespace

// --------------------------------------------------------------------------
// Public API.
// --------------------------------------------------------------------------

MachineConfig RestoreConfig(const SnapshotMeta& meta, MachineConfig engine) {
  engine.memory_words = static_cast<size_t>(meta.memory_words);
  engine.cycle_model = meta.cycle_model;
  engine.quantum = meta.quantum;
  engine.mode = meta.mode;
  return engine;
}

bool SaveSnapshot(const Machine& machine, std::vector<uint8_t>* out, std::string* error,
                  FaultInjector* write_injector) {
  if (!machine.ok()) {
    if (error != nullptr) {
      *error = "machine failed construction; nothing to snapshot";
    }
    return false;
  }
  Writer header;
  header.U32(kSnapshotMagic);
  header.U32(kSnapshotVersion);
  header.U32(kNumSections);
  header.U32(Crc32(header.buf().data(), header.buf().size()));
  *out = std::move(header.buf());
  SnapshotMeta meta{machine.memory().size(), machine.cpu().mode(),
                    machine.supervisor().options().quantum,
                    machine.supervisor().options().trap_storm_limit,
                    machine.config().cycle_model};
  AppendVisited(out, Section::kMeta, meta);
  EncodeMemory(machine.memory(), out);
  MachineState state = machine.CaptureState();
  ForEachStateSection(state, [out](Section id, auto& part) {
    AppendVisited(out, id, part);
    return true;
  });
  if (write_injector != nullptr) {
    size_t byte_index = 0;
    uint8_t mask = 0;
    if (write_injector->MaybeCorruptSnapshotWrite(machine.cpu().cycles(), out->size(),
                                                  &byte_index, &mask)) {
      (*out)[byte_index] ^= mask;
    }
  }
  return true;
}

bool VerifySnapshot(const uint8_t* data, size_t size, std::string* error) {
  std::array<SectionSpan, kNumSections> spans{};
  return WalkImage(data, size, &spans, error);
}

bool PeekSnapshotMeta(const uint8_t* data, size_t size, SnapshotMeta* meta, std::string* error) {
  std::array<SectionSpan, kNumSections> spans{};
  if (!WalkImage(data, size, &spans, error)) {
    return false;
  }
  return DecodeVisited(spans[static_cast<size_t>(Section::kMeta) - 1], Section::kMeta, meta,
                       error);
}

bool RestoreSnapshot(const uint8_t* data, size_t size, Machine* machine, std::string* error,
                     FaultInjector* read_injector) {
  // A simulated read fault damages the image on its way in; the CRC pass
  // below then rejects it with a structured error, exactly as a real
  // corrupted checkpoint read would present.
  std::vector<uint8_t> damaged;
  if (read_injector != nullptr && size > 0) {
    size_t byte_index = 0;
    uint8_t mask = 0;
    if (read_injector->MaybeCorruptSnapshotRead(machine->cpu().cycles(), size, &byte_index,
                                                &mask)) {
      damaged.assign(data, data + size);
      damaged[byte_index] ^= mask;
      data = damaged.data();
    }
  }

  std::array<SectionSpan, kNumSections> spans{};
  if (!WalkImage(data, size, &spans, error)) {
    return false;
  }
  auto span = [&spans](Section id) -> const SectionSpan& {
    return spans[static_cast<size_t>(id) - 1];
  };

  // Check the image's machine shape first, then decode everything
  // host-side: a structurally invalid or incompatible image is rejected
  // before any machine state changes, and the memory section decodes
  // knowing the store it must fill.
  SnapshotMeta meta;
  if (!DecodeVisited(span(Section::kMeta), Section::kMeta, &meta, error)) {
    return false;
  }
  if (!machine->ok()) {
    if (error != nullptr) {
      *error = "target machine failed construction";
    }
    return false;
  }
  if (meta.memory_words != machine->memory().size()) {
    if (error != nullptr) {
      *error = StrFormat("image memory size %llu words does not match machine's %zu",
                         static_cast<unsigned long long>(meta.memory_words),
                         machine->memory().size());
    }
    return false;
  }
  if (!(meta.cycle_model == machine->config().cycle_model)) {
    if (error != nullptr) {
      *error = "image cycle model does not match the machine's (trajectories would diverge)";
    }
    return false;
  }
  DecodedMemory memory;
  MachineState state;
  if (!DecodeMemory(span(Section::kMemory), meta.memory_words, &memory, error) ||
      !ForEachStateSection(state, [&span, error](Section id, auto& part) {
        return DecodeVisited(span(id), id, &part, error);
      })) {
    return false;
  }

  // Apply: the core store, the machine shape, then the state (whose apply
  // flushes every derived host cache and sets counters last).
  machine->memory().RestoreFrames(memory.frames);
  machine->memory().RestoreAllocator(memory.next_free);
  machine->memory().RestoreFaultLatch(memory.latched, memory.fault_count);
  machine->cpu().set_mode(meta.mode);
  machine->supervisor().set_quantum(meta.quantum);
  machine->supervisor().set_trap_storm_limit(meta.trap_storm_limit);
  machine->ApplyState(std::move(state));
  return true;
}

bool SaveSnapshotFile(const Machine& machine, const std::string& path, std::string* error,
                      FaultInjector* write_injector) {
  std::vector<uint8_t> image;
  if (!SaveSnapshot(machine, &image, error, write_injector)) {
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = StrFormat("cannot open '%s' for writing", path.c_str());
    }
    return false;
  }
  const size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != image.size() || !closed) {
    if (error != nullptr) {
      *error = StrFormat("short write to '%s'", path.c_str());
    }
    return false;
  }
  return true;
}

bool ReadSnapshotFile(const std::string& path, std::vector<uint8_t>* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = StrFormat("cannot open '%s' for reading", path.c_str());
    }
    return false;
  }
  out->clear();
  std::array<uint8_t, 65536> chunk;
  size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    out->insert(out->end(), chunk.begin(), chunk.begin() + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    if (error != nullptr) {
      *error = StrFormat("read error on '%s'", path.c_str());
    }
    return false;
  }
  return true;
}

bool RestoreSnapshotFile(const std::string& path, Machine* machine, std::string* error,
                         FaultInjector* read_injector) {
  std::vector<uint8_t> image;
  if (!ReadSnapshotFile(path, &image, error)) {
    return false;
  }
  return RestoreSnapshot(image.data(), image.size(), machine, error, read_injector);
}

}  // namespace rings

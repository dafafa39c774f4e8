// Test-only snapshot image surgery: split a well-formed image into its
// sections, edit payloads, and join them back with fresh CRCs, so tests
// can build hostile images that every checksum accepts. Follows the
// layout in DESIGN.md §8: a 16-byte header, then per section an id u32,
// payload length u64, payload CRC-32 u32 and the payload, little-endian.
#ifndef TESTS_SNAPSHOT_IMAGE_SURGERY_H_
#define TESTS_SNAPSHOT_IMAGE_SURGERY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rings::image_surgery {

// CRC-32 (IEEE 802.3, reflected), bit at a time.
inline uint32_t Crc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}
inline uint32_t Crc32(const std::vector<uint8_t>& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

inline uint64_t GetLe(const std::vector<uint8_t>& bytes, size_t pos, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(bytes[pos + i]) << (8 * i);
  }
  return v;
}
inline void PutLe(std::vector<uint8_t>* bytes, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

struct Section {
  uint32_t id = 0;
  std::vector<uint8_t> payload;
};

// The image's header (first 16 bytes) and sections, in image order.
struct Parts {
  std::vector<uint8_t> header;
  std::vector<Section> sections;

  std::vector<uint8_t>& payload(uint32_t id) {
    for (Section& section : sections) {
      if (section.id == id) {
        return section.payload;
      }
    }
    return sections.front().payload;  // unreachable for a well-formed image
  }
};

inline Parts Split(const std::vector<uint8_t>& image) {
  Parts parts;
  parts.header.assign(image.begin(), image.begin() + 16);
  for (size_t pos = 16; pos + 16 <= image.size();) {
    Section section;
    section.id = static_cast<uint32_t>(GetLe(image, pos, 4));
    const size_t length = static_cast<size_t>(GetLe(image, pos + 4, 8));
    section.payload.assign(image.begin() + pos + 16, image.begin() + pos + 16 + length);
    parts.sections.push_back(std::move(section));
    pos += 16 + length;
  }
  return parts;
}

inline std::vector<uint8_t> Join(const Parts& parts) {
  std::vector<uint8_t> image = parts.header;
  for (const Section& section : parts.sections) {
    PutLe(&image, section.id, 4);
    PutLe(&image, section.payload.size(), 8);
    PutLe(&image, Crc32(section.payload), 4);
    image.insert(image.end(), section.payload.begin(), section.payload.end());
  }
  return image;
}

constexpr uint32_t kMetaSection = 1;
constexpr uint32_t kMemorySection = 2;
constexpr uint32_t kRegistrySection = 4;

// `image` with its meta section declaring a `words`-word store.
inline std::vector<uint8_t> WithMetaWords(const std::vector<uint8_t>& image, uint64_t words) {
  Parts parts = Split(image);
  std::vector<uint8_t>& meta = parts.payload(kMetaSection);
  std::vector<uint8_t> declared;
  PutLe(&declared, words, 8);
  std::copy(declared.begin(), declared.end(), meta.begin());
  return Join(parts);
}

// `image` re-declared as a `words`-word store that is zero throughout:
// meta and memory sections both say `words`, and the memory section's
// run list is one zero run.
inline std::vector<uint8_t> AsZeroStore(const std::vector<uint8_t>& image, uint64_t words) {
  Parts parts = Split(WithMetaWords(image, words));
  std::vector<uint8_t>& memory = parts.payload(kMemorySection);
  // next_free u64, fault_count u64, latched bool [+ addr u64, write bool].
  const size_t prefix = 17 + (memory[16] != 0 ? 9 : 0);
  memory.resize(prefix);
  PutLe(&memory, words, 8);
  PutLe(&memory, 0, 1);  // zero-run tag
  PutLe(&memory, words, 8);
  return Join(parts);
}

}  // namespace rings::image_surgery

#endif  // TESTS_SNAPSHOT_IMAGE_SURGERY_H_

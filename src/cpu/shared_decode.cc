#include "src/cpu/shared_decode.h"

#include <utility>

namespace rings {

SharedDecodeImage::Builder::Builder()
    : image_(std::unique_ptr<SharedDecodeImage>(new SharedDecodeImage())) {}

void SharedDecodeImage::Builder::AddSegment(const std::string& name,
                                            const std::vector<Word>& words) {
  Segment seg;
  seg.name = name;
  seg.words.reserve(words.size());
  for (const Word word : words) {
    Entry e;
    e.raw = word;
    e.decodable = DecodeInstruction(word, &e.ins);
    seg.words.push_back(e);
  }
  image_->segments_.push_back(std::move(seg));
}

std::shared_ptr<const SharedDecodeImage> SharedDecodeImage::Builder::Publish() {
  return std::shared_ptr<const SharedDecodeImage>(std::move(image_));
}

const SharedDecodeImage::Segment* SharedDecodeImage::FindSegment(const std::string& name) const {
  for (const Segment& seg : segments_) {
    if (seg.name == name) {
      return &seg;
    }
  }
  return nullptr;
}

size_t SharedDecodeImage::bytes() const {
  size_t total = sizeof(*this);
  for (const Segment& seg : segments_) {
    total += sizeof(Segment) + seg.name.size() + seg.words.size() * sizeof(Entry);
  }
  return total;
}

}  // namespace rings

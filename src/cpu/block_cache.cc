#include "src/cpu/block_cache.h"

namespace rings {

size_t BlockCache::InvalidateSegment(Segno segno) {
  size_t dropped = 0;
  for (const std::unique_ptr<Block>& b : slots_) {
    if (b != nullptr && b->gen == gen_ && b->segno == segno) {
      b->gen = 0;
      ++dropped;
    }
  }
  ++version_;
  return dropped;
}

}  // namespace rings

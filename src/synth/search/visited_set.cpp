#include "synth/search/visited_set.h"

#include <cstring>

#include "common/error.h"

namespace qsyn::synth {

namespace {
constexpr std::size_t kInitialSlots = 1u << 10;  // power of two
constexpr std::uint64_t kTagMask = 0xffffffff00000000ull;
constexpr std::uint64_t kRowMask = 0xffffffffull;

// A slot packs the row index + 1 (0 = empty) under the high half of the
// row's hash, so a probe reads a stored row only when the hashes agree.
std::uint64_t pack_slot(std::uint64_t hash, std::size_t row) {
  return (hash & kTagMask) | (row + 1);
}
}  // namespace

VisitedSet::VisitedSet(std::size_t width, std::size_t label_range,
                       std::size_t budget_bytes)
    : store_(width, label_range),
      slots_(kInitialSlots, 0),
      slot_mask_(kInitialSlots - 1),
      budget_bytes_(budget_bytes) {}

std::uint64_t VisitedSet::hash_row(const std::uint8_t* row) const {
  // splitmix64 over the row bytes, eight at a time (same mixing the
  // closure's G-keys use).
  const std::size_t stride = store_.row_stride();
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  std::size_t offset = 0;
  while (offset < stride) {
    std::uint64_t word = 0;
    const std::size_t chunk = stride - offset < 8 ? stride - offset : 8;
    std::memcpy(&word, row + offset, chunk);
    offset += chunk;
    std::uint64_t x = word + h;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    h = x ^ (x >> 31);
  }
  return h;
}

std::size_t VisitedSet::probe(const std::uint8_t* row,
                              std::uint64_t hash) const {
  const std::size_t stride = store_.row_stride();
  std::size_t i = static_cast<std::size_t>(hash) & slot_mask_;
  while (true) {
    const std::uint64_t slot = slots_[i];
    if (slot == 0) return i;
    if ((slot & kTagMask) == (hash & kTagMask) &&
        std::memcmp(store_.data() + ((slot & kRowMask) - 1) * stride, row,
                    stride) == 0) {
      return i;
    }
    i = (i + 1) & slot_mask_;
  }
}

bool VisitedSet::admit(const std::uint8_t* row, unsigned depth,
                       std::uint8_t gate) {
  QSYN_CHECK(depth <= 0xff, "search depth exceeds the table's depth field");
  const std::uint64_t hash = hash_row(row);
  const std::size_t i = probe(row, hash);
  if (slots_[i] == 0) {
    const std::size_t stride = store_.row_stride();
    if (budget_bytes_ != 0 && store_.size_bytes() + stride > budget_bytes_) {
      saturated_ = true;  // explore, but stop recording
      return true;
    }
    QSYN_CHECK(store_.size() < kRowMask, "search table exceeds 2^32 rows");
    slots_[i] = pack_slot(hash, store_.size());
    store_.push_back(row);
    depths_.push_back(static_cast<std::uint8_t>(depth));
    gates_.push_back(gate);
    if (store_.size() * 10 >= slots_.size() * 7) grow_index();
    return true;
  }
  const std::size_t r = (slots_[i] & kRowMask) - 1;
  if (depth < depths_[r]) {
    depths_[r] = static_cast<std::uint8_t>(depth);
    gates_[r] = gate;
    return true;  // strictly more remaining budget: re-explore
  }
  return false;
}

std::size_t VisitedSet::find(const std::uint8_t* row) const {
  const std::uint64_t slot = slots_[probe(row, hash_row(row))];
  return slot == 0 ? kAbsent : (slot & kRowMask) - 1;
}

void VisitedSet::grow_index() {
  const std::size_t new_size = slots_.size() * 2;
  slots_.assign(new_size, 0);
  slot_mask_ = new_size - 1;
  for (std::size_t r = 0; r < store_.size(); ++r) {
    const std::uint64_t hash = hash_row(store_.row(r));
    std::size_t i = static_cast<std::size_t>(hash) & slot_mask_;
    while (slots_[i] != 0) i = (i + 1) & slot_mask_;
    slots_[i] = pack_slot(hash, r);
  }
}

}  // namespace qsyn::synth

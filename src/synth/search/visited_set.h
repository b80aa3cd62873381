// qsyn/synth/search/visited_set.h
//
// VisitedSet — the topology search's forward table.
//
// The search state is the image table of the 2^n binary labels under a
// cascade prefix. The meet-in-the-middle engine (topology_search.h) keeps
// one breadth-first table of every state reached from the identity: each
// row records the shallowest depth it was reached at and the gate that
// reached it there, so a row's predecessor is recomputed by applying that
// gate's inverse and its whole witness is a chain of lookups — no heap node
// and no parent pointer per state.
//
// Rows live in a FlatPermStore (the closure's flat row arena, here with the
// label-byte width taken from the domain size rather than the row width),
// with an open-addressing index of row slots on top (each slot tagged with
// half of its row's hash, so a probe reads a stored row only on a likely
// match) and a depth byte plus a gate byte per row beside it. The arena is
// bounded by a byte budget: once full, new states are no longer recorded and
// saturated() turns true, which the search reads as "this level does not
// fit" and stops growing the table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "synth/flat_perm_store.h"

namespace qsyn::synth {

/// Depth- and gate-tagged set of search states over a bounded FlatPermStore
/// arena.
class VisitedSet {
 public:
  /// find() result for a state that is not recorded.
  static constexpr std::size_t kAbsent = ~std::size_t(0);

  /// `width` = labels per state row (2^n), `label_range` = domain size the
  /// labels are drawn from (sets the row encoding), `budget_bytes` bounds
  /// the arena (0 = unlimited).
  VisitedSet(std::size_t width, std::size_t label_range,
             std::size_t budget_bytes);

  /// True when the caller should explore this state: it is unseen (recorded
  /// with `gate`, budget permitting) or was previously seen only at a
  /// strictly greater depth (the record is lowered in place and takes
  /// `gate`). False = prune.
  [[nodiscard]] bool admit(const std::uint8_t* row, unsigned depth,
                           std::uint8_t gate = 0);

  /// Index of the recorded row equal to `row`, or kAbsent.
  [[nodiscard]] std::size_t find(const std::uint8_t* row) const;

  [[nodiscard]] const std::uint8_t* row(std::size_t i) const {
    return store_.row(i);
  }
  [[nodiscard]] unsigned depth(std::size_t i) const { return depths_[i]; }
  [[nodiscard]] std::uint8_t gate(std::size_t i) const { return gates_[i]; }

  [[nodiscard]] std::size_t rows() const { return store_.size(); }
  [[nodiscard]] std::size_t row_stride() const { return store_.row_stride(); }

  /// True once the byte budget refused at least one insert.
  [[nodiscard]] bool saturated() const { return saturated_; }

 private:
  [[nodiscard]] std::uint64_t hash_row(const std::uint8_t* row) const;
  /// The index slot holding `row`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(const std::uint8_t* row,
                                  std::uint64_t hash) const;
  void grow_index();

  FlatPermStore store_;               // one row per recorded state
  std::vector<std::uint8_t> depths_;  // shallowest depth per row
  std::vector<std::uint8_t> gates_;   // gate reaching the row at that depth
  std::vector<std::uint64_t> slots_;  // open addressing: hash tag | row + 1
  std::size_t slot_mask_ = 0;
  std::size_t budget_bytes_;
  bool saturated_ = false;
};

}  // namespace qsyn::synth

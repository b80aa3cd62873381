// qsyn/synth/search/topology_search.h
//
// TopologySearchBackend — exact synthesis by a meet-in-the-middle search
// over gate cascades, the complementary attack to the FMCF breadth-first
// closure: it stores only what the 2^n binary labels can reach, not every
// reachable domain permutation.
//
// Search state is the image table of the 2^n binary labels under a cascade
// prefix — the only part of the full domain permutation the banned sets and
// the target test consult. A cascade s∘r realizes the target's core t iff
// r(b) = s⁻¹(t(b)) for every binary label b, so a query splits into:
//   * a forward table (VisitedSet) of every state reachable from the
//     identity, breadth-first, each with its shallowest depth and the gate
//     that reached it. It does not depend on the target, is built one level
//     at a time the first time a query needs that level, and is kept across
//     queries. SearchConfig::visited_budget_bytes bounds it: the deepest
//     level that fits is A, and the table never grows past it.
//   * a backward DFS from the target: iteration L = 1..max_cost covers the
//     forward side to depth a(L) = min(L - 1, A) and takes exactly
//     L - a(L) inverse-gate steps from t, looking each leaf up in the table
//     at depth a(L). The first iteration with a hit is the minimal cost
//     (every shallower iteration completed without one), and a completed
//     miss at L proves cost > L — the closure's exactness contract.
//     The witness is the hit row's forward gate chain followed by the
//     backward gates. Iterations with one backward step share their
//     leaves, so one walk serves all those the built table covers: a leaf
//     at depth d answers iteration d + 1, and the shallowest leaf (the
//     first found on ties) is the first iteration's hit.
// At n = 3 the table to depth 7 holds 20,748 states (~0.2 MiB of rows), so
// a warm cost-8 query is 18 lookups, not a DFS to depth 8. With a budget too
// small for level 1 the search is backward only.
//
// Pruning (all exactness-preserving, on both sides):
//   * banned classes (NQubitDomain): a gate is applied only when its banned
//     set misses the binary images it is applied to — the paper's
//     "reasonable product". The backward side checks each g at the
//     predecessor state g⁻¹(cur);
//   * canonical order: no gate directly follows its adjoint (the pair
//     cancels, so no *minimal* cascade contains it), and of two adjacent
//     commuting gates only the ascending-index order is kept when the
//     swapped order is itself reasonable. Forward, the previous gate is the
//     row's recorded gate; backward, it is the gate chosen one step nearer
//     the target;
//   * deduplication: a forward state already in the table is not re-added
//     (counted as pruned_visited).
//
// Theorem 2's NOT coset is handled exactly as in the closure path: targets
// are stripped to a core fixing the all-zero pattern via strip_not_prefix,
// and only cores are searched. An answer is a pure function of the target,
// the library and the config: the table's levels and their recorded gates
// do not depend on which queries built them, and the backward DFS walks
// gates in index order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gates/library.h"
#include "perm/permutation.h"
#include "synth/backend.h"
#include "synth/search/visited_set.h"

namespace qsyn::synth {

/// Knobs of the search engine.
struct SearchConfig {
  /// Deepest iteration (the paper's cb): targets with minimal cost beyond
  /// this return nullopt.
  unsigned max_cost = 7;

  /// Byte budget of the forward table's row arena (0 = unlimited). The
  /// table keeps the deepest complete level that fits; iterations past it
  /// take more backward steps instead. The search stays exact at any budget
  /// — at 1 byte no level fits and the search is backward only.
  std::size_t visited_budget_bytes = std::size_t(64) << 20;

  /// Honor the banned sets. Turning this off is an *ablation only*, exactly
  /// as on the closure: the search then walks unphysical cascades.
  bool use_banned_sets = true;

  /// Canonical-order pruning: skip a gate directly following its adjoint.
  bool prune_adjoint_pairs = true;

  /// Canonical-order pruning: of two adjacent commuting gates keep only the
  /// ascending-index order (when the swapped order is also reasonable).
  bool prune_commuting_pairs = true;
};

/// Cumulative search counters (across every query on one backend). For one
/// query sequence on a fresh backend they are exact and repeatable.
struct SearchStats {
  std::size_t nodes = 0;             // forward expansions + backward interior
  std::size_t leaves = 0;            // backward leaves looked up in the table
  std::size_t pruned_banned = 0;     // gates skipped by banned classes
  std::size_t pruned_adjoint = 0;    // gates skipped as canceling pairs
  std::size_t pruned_commuting = 0;  // gates skipped by canonical order
  std::size_t pruned_visited = 0;    // forward children already in the table
  std::size_t peak_memo_rows = 0;    // rows in the forward table
  unsigned deepest_iteration = 0;    // largest iteration L tried
};

/// Meet-in-the-middle exact synthesis backend. Supports the same wire range
/// as the closure (2..5).
class TopologySearchBackend final : public SynthesisBackend {
 public:
  explicit TopologySearchBackend(const gates::GateLibrary& library,
                                 SearchConfig config = {});

  [[nodiscard]] const gates::GateLibrary& library() const override {
    return *library_;
  }
  [[nodiscard]] unsigned max_cost() const override { return config_.max_cost; }
  [[nodiscard]] BackendInfo info() const override;
  [[nodiscard]] std::optional<BackendAnswer> locate(
      const perm::Permutation& target) override;
  [[nodiscard]] std::optional<SynthesisResult> synthesize(
      const perm::Permutation& target) override;

  [[nodiscard]] const SearchConfig& config() const { return config_; }
  [[nodiscard]] const SearchStats& stats() const { return stats_; }

 private:
  [[nodiscard]] std::uint32_t banned_of(const std::uint16_t* state) const;
  [[nodiscard]] bool admissible(std::size_t gate, std::uint32_t banned) const;
  void apply(const std::vector<std::uint16_t>& table, const std::uint16_t* in,
             std::uint16_t* out) const;
  void encode_state(const std::uint16_t* state, std::uint8_t* out) const;
  void decode_state(const std::uint8_t* row, std::uint16_t* out) const;

  /// Builds forward levels until `depth` is complete or the budget caps the
  /// table; returns the deepest complete level, at most `depth`.
  unsigned forward_depth(unsigned depth);
  /// Expands the deepest complete level into the next one.
  void expand_level();
  /// Backward DFS below stack level `step`: each leaf, `steps` inverse
  /// steps from the target, goes to record_leaf(). `next_gate` is the gate
  /// chosen one step nearer the target. True once a leaf at depth `a` is
  /// recorded.
  bool backward(unsigned step, unsigned steps, unsigned a,
                std::size_t next_gate);
  /// Records the encoded leaf when the table holds it at a depth from `a`
  /// up to below best_depth_ (then the leaf and path_ become the best hit);
  /// true when that depth is `a`.
  bool record_leaf(const std::uint8_t* encoded, unsigned a);
  /// The forward gate chain from the identity to table row `row`.
  std::vector<std::size_t> forward_path(std::size_t row) const;

  const gates::GateLibrary* library_;  // outlives the backend
  SearchConfig config_;
  SearchStats stats_;
  std::size_t wires_;
  std::size_t width_;         // domain size
  std::size_t binary_count_;  // 2^n
  std::size_t label_bytes_;   // table row encoding (1 or 2)

  std::vector<std::vector<std::uint16_t>> gate_tables_;    // [gate][label0]
  std::vector<std::vector<std::uint16_t>> gate_inverses_;  // [gate][label0]
  std::vector<std::uint32_t> gate_class_bits_;             // [gate]
  std::vector<std::size_t> gate_adjoint_;                  // [gate]
  std::vector<std::uint8_t> gate_commutes_;  // [a * |L| + b] (symmetric)
  std::vector<std::uint32_t> label_banned_;  // [label0]

  // Forward table: level d holds rows [level_end_[d - 1], level_end_[d]).
  VisitedSet table_;
  std::vector<std::size_t> level_end_;
  bool capped_ = false;  // the budget refused the level past the last one
  std::vector<std::uint8_t> root_;  // the identity state, encoded

  // Per-query backward scratch: states_ holds steps + 1 image tables.
  std::vector<std::uint16_t> states_;
  std::vector<std::uint16_t> scratch_;
  std::vector<std::uint8_t> encoded_;
  std::vector<std::size_t> path_;  // backward gates, nearest the target first
  unsigned best_depth_ = 0;        // table depth of the best leaf so far
  std::size_t best_row_ = VisitedSet::kAbsent;
  std::vector<std::size_t> best_path_;
};

}  // namespace qsyn::synth

// qsyn/synth/backend.h
//
// SynthesisBackend — the one polymorphic seam over every synthesis engine.
//
// The paper's MCE construction was historically served by exactly one engine
// (the FMCF breadth-first closure), and every consumer was hard-wired to it.
// This interface cuts that coupling: a backend answers "what is the minimal
// quantum cost of this reversible circuit, and give me one minimal cascade",
// and callers pick the engine by construction, not by type:
//
//   * ClosureBackend (below) — the exhaustive breadth-first FMCF closure via
//     McExpressor. Fastest per query once the levels are computed (and
//     instant over a persistent catalog), but memory-bound in the level
//     width: the 5-wire closure needs gigabytes past k = 3.
//   * TopologySearchBackend (synth/search/topology_search.h) — a
//     meet-in-the-middle search: a cached forward table of binary-label
//     images plus a short backward DFS per query. It stores only what the
//     binary labels reach, so it reaches costs/widths the closure cannot
//     hold, at the price of searching per query.
//   * CatalogServer::as_backend() (synth/catalog_server.h) — stored-answer
//     serving over a reopened catalog, optionally falling back to a search
//     backend on a miss.
//
// Both engines answer through Theorem 2's coset trick: the target is split
// into a cost-0 NOT prefix and a core permutation fixing the all-zero
// pattern, and only the core is searched/located.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gates/library.h"
#include "perm/permutation.h"
#include "synth/closure_config.h"
#include "synth/mce.h"

namespace qsyn::synth {

/// Capability / provenance introspection of one backend. Callers use it to
/// route queries (e.g. prefer a non-deepening backend on a serving path) and
/// to check that two backends being compared answer for the same library.
struct BackendInfo {
  /// Engine name: "closure" or "topology-search".
  std::string name;
  /// Answers are guaranteed minimal for every target located within
  /// max_cost (both in-tree engines are exact; a future heuristic/SAT
  /// backend may clear this).
  bool exact = true;
  /// locate()/synthesize() may do new enumeration work on a miss (the
  /// closure deepens level by level; the search runs per query).
  bool deepens_on_miss = false;
  /// The backend can enumerate *all* minimal implementations of a target,
  /// not just one witness (closure-specific today).
  bool enumerates_implementations = false;
  /// The engine's cost ceiling (the paper's cb).
  unsigned max_cost = 0;
  /// Fingerprints of the gate library / pattern domain the backend answers
  /// for (gates::GateLibrary::fingerprint, mvl::PatternDomain::fingerprint).
  /// Two backends are comparable iff these match.
  std::uint64_t library_fingerprint = 0;
  std::uint64_t domain_fingerprint = 0;
};

/// A locate() answer: the minimal library-gate count of the target's core
/// plus Theorem 2's cost-0 NOT layer. Engine-specific locators (closure
/// frontier rows, search paths) stay behind the concrete backends.
struct BackendAnswer {
  unsigned cost = 0;
  std::vector<gates::Gate> not_prefix;
};

/// Polymorphic synthesis engine: minimal-quantum-cost realization of
/// reversible circuits (permutations of {1..2^n} in binary-value order) over
/// one gate library.
class SynthesisBackend {
 public:
  virtual ~SynthesisBackend();

  SynthesisBackend() = default;
  SynthesisBackend(const SynthesisBackend&) = delete;
  SynthesisBackend& operator=(const SynthesisBackend&) = delete;

  /// The library the backend synthesizes over.
  [[nodiscard]] virtual const gates::GateLibrary& library() const = 0;

  /// Cost ceiling: targets whose minimal cost exceeds this return nullopt.
  [[nodiscard]] virtual unsigned max_cost() const = 0;

  /// Capability and fingerprint introspection.
  [[nodiscard]] virtual BackendInfo info() const = 0;

  /// Minimal cost + NOT prefix of `target`, or nullopt beyond max_cost.
  [[nodiscard]] virtual std::optional<BackendAnswer> locate(
      const perm::Permutation& target) = 0;

  /// One minimal realization, or nullopt beyond max_cost.
  [[nodiscard]] virtual std::optional<SynthesisResult> synthesize(
      const perm::Permutation& target) = 0;

  /// Batched synthesize: one answer per target, in order. The default loops
  /// over synthesize(); engines override when a batch can share work (the
  /// catalog server fans a batch out over its worker pool).
  [[nodiscard]] virtual std::vector<std::optional<SynthesisResult>>
  synthesize_batch(const std::vector<perm::Permutation>& targets);
};

/// The FMCF breadth-first closure behind the seam: a thin adapter over
/// McExpressor whose answers are byte-identical to calling the expressor
/// directly (it *is* the expressor — the adapter adds no logic).
class ClosureBackend final : public SynthesisBackend {
 public:
  /// Fresh closure over `library`, deepened on demand up to `max_cost`.
  explicit ClosureBackend(const gates::GateLibrary& library,
                          unsigned max_cost = 7, ClosureConfig config = {});

  /// Over an existing enumerator (typically reopened from a persistent
  /// catalog); see McExpressor's enumerator constructor for the `max_cost`
  /// and read-only semantics.
  explicit ClosureBackend(FmcfEnumerator enumerator, unsigned max_cost = 0);

  /// Adopts an already-built expressor.
  explicit ClosureBackend(McExpressor expressor);

  [[nodiscard]] const gates::GateLibrary& library() const override;
  [[nodiscard]] unsigned max_cost() const override;
  [[nodiscard]] BackendInfo info() const override;
  [[nodiscard]] std::optional<BackendAnswer> locate(
      const perm::Permutation& target) override;
  [[nodiscard]] std::optional<SynthesisResult> synthesize(
      const perm::Permutation& target) override;

  /// The wrapped expressor, for closure-specific extras the seam does not
  /// carry (implementations(), count_sequences(), the enumerator stats).
  [[nodiscard]] McExpressor& expressor() { return mce_; }
  [[nodiscard]] const McExpressor& expressor() const { return mce_; }

 private:
  McExpressor mce_;
};

}  // namespace qsyn::synth

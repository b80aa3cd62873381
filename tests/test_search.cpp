// Tests for the SynthesisBackend seam and the meet-in-the-middle search
// engine: ClosureBackend answers must be byte-identical to the bare
// McExpressor, and TopologySearchBackend must agree with the closure on cost
// for every closure-reachable target at every forward-table depth (the
// cross-backend differentials), answer the same circuit whatever it was
// asked before, and reach widths/costs the in-memory closure cannot hold
// (the 5-wire acceptance case).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "gates/cascade.h"
#include "gates/library.h"
#include "mvl/domain.h"
#include "perm/permutation.h"
#include "sim/cross_check.h"
#include "synth/backend.h"
#include "synth/catalog_server.h"
#include "synth/mce.h"
#include "synth/search/topology_search.h"
#include "synth/search/visited_set.h"
#include "synth/specs.h"

namespace qsyn::synth {
namespace {

// ---------------------------------------------------------------------------
// VisitedSet (the DFS transposition memo)

TEST(VisitedSet, AdmitsUnseenAndPrunesRevisits) {
  VisitedSet memo(8, 38, /*budget_bytes=*/0);
  const std::uint8_t a[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::uint8_t b[8] = {1, 0, 2, 3, 4, 5, 6, 7};
  EXPECT_TRUE(memo.admit(a, 3));
  EXPECT_TRUE(memo.admit(b, 3));   // different state
  EXPECT_FALSE(memo.admit(a, 3));  // same depth: prune
  EXPECT_FALSE(memo.admit(a, 5));  // deeper: prune
  EXPECT_TRUE(memo.admit(a, 1));   // strictly shallower: re-explore
  EXPECT_FALSE(memo.admit(a, 2));  // record was lowered to 1
  EXPECT_EQ(memo.rows(), 2u);
}

TEST(VisitedSet, GrowsPastInitialIndexCapacity) {
  VisitedSet memo(8, 782, /*budget_bytes=*/0);
  EXPECT_EQ(memo.row_stride(), 16u);  // 2-byte labels past 256
  std::uint8_t row[16] = {0};
  for (std::uint32_t i = 0; i < 5000; ++i) {
    row[0] = static_cast<std::uint8_t>(i >> 8);
    row[1] = static_cast<std::uint8_t>(i);
    EXPECT_TRUE(memo.admit(row, 2));
  }
  EXPECT_EQ(memo.rows(), 5000u);
  row[0] = 0;
  row[1] = 42;
  EXPECT_FALSE(memo.admit(row, 2));  // still found after index growth
}

TEST(VisitedSet, BudgetStopsRecordingButKeepsExploring) {
  VisitedSet memo(8, 38, /*budget_bytes=*/4 * 8);
  std::uint8_t row[8] = {0};
  for (std::uint8_t i = 0; i < 4; ++i) {
    row[0] = i;
    EXPECT_TRUE(memo.admit(row, 1));
  }
  EXPECT_FALSE(memo.saturated());
  row[0] = 4;
  EXPECT_TRUE(memo.admit(row, 1));  // over budget: explored, not recorded
  EXPECT_TRUE(memo.saturated());
  EXPECT_EQ(memo.rows(), 4u);
  EXPECT_TRUE(memo.admit(row, 1));  // and again (no dedup once saturated)
  row[0] = 0;
  EXPECT_FALSE(memo.admit(row, 1));  // recorded states still prune
}

TEST(VisitedSet, FindReturnsRecordedDepthAndGate) {
  VisitedSet table(8, 38, /*budget_bytes=*/0);
  const std::uint8_t a[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::uint8_t b[8] = {1, 0, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(table.find(a), VisitedSet::kAbsent);
  EXPECT_TRUE(table.admit(a, 0));
  EXPECT_TRUE(table.admit(b, 2, /*gate=*/17));
  const std::size_t row = table.find(b);
  ASSERT_NE(row, VisitedSet::kAbsent);
  EXPECT_EQ(table.depth(row), 2u);
  EXPECT_EQ(table.gate(row), 17u);
  EXPECT_EQ(std::memcmp(table.row(row), b, 8), 0);
  EXPECT_TRUE(table.admit(b, 1, /*gate=*/3));  // lowered: takes the new gate
  EXPECT_EQ(table.depth(row), 1u);
  EXPECT_EQ(table.gate(row), 3u);
  EXPECT_EQ(table.find(a), 0u);
}

// ---------------------------------------------------------------------------
// ClosureBackend: a transparent adapter over McExpressor

const gates::GateLibrary& library3() {
  static const gates::GateLibrary library = gates::GateLibrary::standard(3);
  return library;
}

class Backend3 : public ::testing::Test {
 protected:
  static const gates::GateLibrary& lib() { return library3(); }
};

TEST_F(Backend3, ClosureBackendMatchesBareExpressorByteForByte) {
  ClosureBackend backend(lib(), 7);
  McExpressor bare(lib(), 7);
  const std::vector<perm::Permutation> targets = {
      perm::Permutation::identity(8),
      perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8),
      peres_perm(),
      toffoli_perm(),
      fredkin_perm(),
      g2_perm(),
      g3_perm(),
      g4_perm(),
      swap_bc_perm()};
  for (const auto& target : targets) {
    const auto via_seam = backend.synthesize(target);
    const auto direct = bare.synthesize(target);
    ASSERT_EQ(via_seam.has_value(), direct.has_value());
    ASSERT_TRUE(via_seam.has_value());
    EXPECT_EQ(via_seam->cost, direct->cost);
    EXPECT_EQ(via_seam->circuit, direct->circuit);
    EXPECT_EQ(via_seam->core, direct->core);
    EXPECT_EQ(via_seam->not_prefix, direct->not_prefix);
    const auto answer = backend.locate(target);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->cost, direct->cost);
    EXPECT_EQ(answer->not_prefix, direct->not_prefix);
  }
}

TEST_F(Backend3, ClosureBackendInfo) {
  ClosureBackend backend(lib(), 6);
  const BackendInfo info = backend.info();
  EXPECT_EQ(info.name, "closure");
  EXPECT_TRUE(info.exact);
  EXPECT_TRUE(info.deepens_on_miss);
  EXPECT_TRUE(info.enumerates_implementations);
  EXPECT_EQ(info.max_cost, 6u);
  EXPECT_EQ(info.library_fingerprint, lib().fingerprint());
  EXPECT_EQ(info.domain_fingerprint, lib().domain().fingerprint());
  EXPECT_EQ(backend.max_cost(), 6u);
  EXPECT_EQ(&backend.library(), &lib());
}

TEST_F(Backend3, DefaultBatchLoopsOverSynthesize) {
  ClosureBackend backend(lib(), 7);
  const std::vector<perm::Permutation> targets = {peres_perm(),
                                                  toffoli_perm()};
  const auto batch = backend.synthesize_batch(targets);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].has_value());
  ASSERT_TRUE(batch[1].has_value());
  EXPECT_EQ(batch[0]->cost, 4u);
  EXPECT_EQ(batch[1]->cost, 5u);
}

// ---------------------------------------------------------------------------
// TopologySearchBackend: basics

TEST_F(Backend3, SearchInfo) {
  SearchConfig config;
  config.max_cost = 5;
  TopologySearchBackend search(lib(), config);
  const BackendInfo info = search.info();
  EXPECT_EQ(info.name, "topology-search");
  EXPECT_TRUE(info.exact);
  EXPECT_TRUE(info.deepens_on_miss);
  EXPECT_FALSE(info.enumerates_implementations);
  EXPECT_EQ(info.max_cost, 5u);
  EXPECT_EQ(info.library_fingerprint, lib().fingerprint());
  EXPECT_EQ(info.domain_fingerprint, lib().domain().fingerprint());
}

TEST_F(Backend3, SearchIdentityCostsZero) {
  TopologySearchBackend search(lib());
  const auto result = search.synthesize(perm::Permutation::identity(8));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 0u);
  EXPECT_TRUE(result->circuit.empty());
}

TEST_F(Backend3, SearchPureNotCircuitCostsZero) {
  const auto target = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  TopologySearchBackend search(lib());
  const auto result = search.synthesize(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 0u);
  ASSERT_EQ(result->not_prefix.size(), 1u);
  EXPECT_EQ(result->not_prefix[0], gates::Gate::not_gate(2));
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, target));
}

TEST_F(Backend3, SearchPeresCostsFourAndVerifies) {
  TopologySearchBackend search(lib());
  const auto result = search.synthesize(peres_perm());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 4u);
  EXPECT_TRUE(result->not_prefix.empty());
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, peres_perm()));
  EXPECT_GE(search.stats().deepest_iteration, 4u);
}

TEST_F(Backend3, SearchToffoliWithNotPrefixVerifies) {
  // Toffoli conjugated into a different coset: NOT on wire A times Toffoli.
  const auto not_a =
      perm::Permutation::from_cycles("(1,5)(2,6)(3,7)(4,8)", 8);
  const auto target = not_a * toffoli_perm();
  TopologySearchBackend search(lib());
  McExpressor closure(lib(), 7);
  const auto via_search = search.synthesize(target);
  const auto via_closure = closure.synthesize(target);
  ASSERT_TRUE(via_search.has_value());
  ASSERT_TRUE(via_closure.has_value());
  EXPECT_EQ(via_search->cost, via_closure->cost);
  EXPECT_FALSE(via_search->not_prefix.empty());
  EXPECT_TRUE(sim::realizes_permutation(via_search->circuit, target));
}

TEST_F(Backend3, SearchMissBeyondMaxCost) {
  SearchConfig config;
  config.max_cost = 3;
  TopologySearchBackend search(lib(), config);
  EXPECT_FALSE(search.synthesize(peres_perm()).has_value());  // cost 4
  EXPECT_FALSE(search.locate(toffoli_perm()).has_value());    // cost 5
}

TEST_F(Backend3, SearchLocateReturnsCostAndPrefix) {
  TopologySearchBackend search(lib());
  const auto answer = search.locate(peres_perm());
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->cost, 4u);
  EXPECT_TRUE(answer->not_prefix.empty());
}

// ---------------------------------------------------------------------------
// Cross-backend differential: the DFS engine must agree with the closure on
// every closure-reachable 3-qubit circuit at cb = 5, and each cascade it
// returns must simulate to its target exactly.

TEST_F(Backend3, DifferentialEveryClosureTargetAtCb5) {
  McExpressor closure(lib(), 5);
  // Deepen the closure to level 5 (Toffoli's minimal cost is 5).
  const auto toffoli_cost = closure.minimal_cost(toffoli_perm());
  ASSERT_TRUE(toffoli_cost.has_value());
  ASSERT_EQ(*toffoli_cost, 5u);
  const FmcfEnumerator& fmcf = closure.enumerator();
  ASSERT_GE(fmcf.levels_done(), 5u);

  std::vector<perm::Permutation> targets;
  std::vector<unsigned> expected_cost;
  for (unsigned k = 1; k <= 5; ++k) {
    for (auto& g : fmcf.g_set(k)) {
      targets.push_back(std::move(g));
      expected_cost.push_back(k);
    }
  }
  ASSERT_FALSE(targets.empty());

  SearchConfig config;
  config.max_cost = 5;
  TopologySearchBackend search(lib(), config);
  const auto answers = search.synthesize_batch(targets);
  ASSERT_EQ(answers.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(answers[i].has_value()) << "target " << i << " unanswered";
    EXPECT_EQ(answers[i]->cost, expected_cost[i]) << "target " << i;
    EXPECT_TRUE(sim::realizes_permutation(answers[i]->circuit, targets[i]))
        << "target " << i;
  }
}

TEST_F(Backend3, PruningAblationsAgreeOnCosts) {
  // The canonical-order prunes are exactness-preserving: with them disabled
  // and no room for a forward table, the (much slower) backward-only
  // banned-set DFS must report the same costs.
  const std::vector<perm::Permutation> targets = {
      peres_perm(), g2_perm(), g3_perm(), g4_perm(), swap_bc_perm()};
  SearchConfig pruned;
  pruned.max_cost = 4;
  SearchConfig plain;
  plain.max_cost = 4;
  plain.prune_adjoint_pairs = false;
  plain.prune_commuting_pairs = false;
  plain.visited_budget_bytes = 1;  // no forward level fits
  TopologySearchBackend fast(lib(), pruned);
  TopologySearchBackend slow(lib(), plain);
  for (const auto& target : targets) {
    const auto a = fast.locate(target);
    const auto b = slow.locate(target);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->cost, b->cost);
    }
  }
  // The prunes must actually fire (and the ablation must not).
  EXPECT_GT(fast.stats().pruned_adjoint, 0u);
  EXPECT_GT(fast.stats().pruned_commuting, 0u);
  EXPECT_EQ(slow.stats().pruned_adjoint, 0u);
  EXPECT_EQ(slow.stats().pruned_commuting, 0u);
}

TEST_F(Backend3, BatchMixesCosetsAndDuplicates) {
  const auto not_c = perm::Permutation::from_cycles("(1,2)(3,4)(5,6)(7,8)", 8);
  const std::vector<perm::Permutation> targets = {
      peres_perm(), perm::Permutation::identity(8), peres_perm(),
      not_c * peres_perm(), not_c};
  TopologySearchBackend search(lib());
  const auto answers = search.synthesize_batch(targets);
  ASSERT_EQ(answers.size(), 5u);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(answers[i].has_value());
    EXPECT_TRUE(sim::realizes_permutation(answers[i]->circuit, targets[i]));
  }
  EXPECT_EQ(answers[0]->cost, 4u);
  EXPECT_EQ(answers[1]->cost, 0u);
  EXPECT_EQ(answers[2]->cost, 4u);
  EXPECT_EQ(answers[0]->circuit, answers[2]->circuit);  // same answer
  EXPECT_EQ(answers[3]->cost, 4u);
  EXPECT_EQ(answers[4]->cost, 0u);
}

// ---------------------------------------------------------------------------
// CatalogServer behind the seam: the search backend as the miss-path
// fallback, and the server itself adapted onto SynthesisBackend.

/// A cb = 4 serving layer over the shared static library (the enumerator
/// keeps a pointer to it): Toffoli (cost 5) is a guaranteed catalog miss.
CatalogServer make_server4(const gates::GateLibrary& library) {
  FmcfEnumerator closure(library);
  closure.run_to(4);
  return CatalogServer(std::move(closure));
}

std::shared_ptr<TopologySearchBackend> make_search_fallback(
    const gates::GateLibrary& library, unsigned max_cost = 5) {
  SearchConfig config;
  config.max_cost = max_cost;
  return std::make_shared<TopologySearchBackend>(library, config);
}

TEST_F(Backend3, CatalogMissAnswersThroughSearchFallback) {
  CatalogServer server = make_server4(lib());
  // Beyond the stored levels: a plain miss without a fallback...
  EXPECT_FALSE(server.has_fallback());
  EXPECT_FALSE(server.synthesize(toffoli_perm()).has_value());
  // ...and the search backend's witness with one.
  server.set_fallback(make_search_fallback(lib()));
  EXPECT_TRUE(server.has_fallback());
  const auto result = server.synthesize(toffoli_perm());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 5u);
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, toffoli_perm()));
  // Catalog hits never touch the fallback and stay byte-identical.
  const auto hit = server.synthesize(peres_perm());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cost, 4u);
  // locate() is catalog-only: its answer is a storage location.
  EXPECT_FALSE(server.locate(toffoli_perm()).has_value());
  // Unplugging restores the plain miss.
  server.set_fallback(nullptr);
  EXPECT_FALSE(server.has_fallback());
  EXPECT_FALSE(server.synthesize(toffoli_perm()).has_value());
}

TEST_F(Backend3, FallbackForDifferentLibraryThrows) {
  CatalogServer server = make_server4(lib());
  const gates::GateLibrary other = gates::GateLibrary::standard(2);
  EXPECT_THROW(server.set_fallback(make_search_fallback(other)),
               qsyn::LogicError);
  EXPECT_FALSE(server.has_fallback());
}

TEST_F(Backend3, AsBackendServesStoredAnswersAndFallback) {
  CatalogServer server = make_server4(lib());
  const auto backend = server.as_backend();
  const BackendInfo info = backend->info();
  EXPECT_EQ(info.name, "catalog");
  EXPECT_TRUE(info.exact);
  EXPECT_FALSE(info.deepens_on_miss);  // no fallback plugged in yet
  EXPECT_TRUE(info.enumerates_implementations);
  EXPECT_EQ(info.max_cost, 4u);
  EXPECT_EQ(info.library_fingerprint, lib().fingerprint());
  EXPECT_EQ(backend->max_cost(), 4u);

  // A stored answer through the seam matches the server byte for byte.
  const auto via_seam = backend->synthesize(peres_perm());
  const auto direct = server.synthesize(peres_perm());
  ASSERT_TRUE(via_seam.has_value() && direct.has_value());
  EXPECT_EQ(via_seam->circuit, direct->circuit);
  const auto answer = backend->locate(peres_perm());
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->cost, 4u);

  // With a fallback the adapter answers misses too (locate included: the
  // seam's locate() is a cost query, not a storage location).
  EXPECT_FALSE(backend->locate(toffoli_perm()).has_value());
  server.set_fallback(make_search_fallback(lib()));
  EXPECT_TRUE(backend->info().deepens_on_miss);
  const auto miss = backend->locate(toffoli_perm());
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->cost, 5u);
  const auto batch = backend->synthesize_batch({peres_perm(), toffoli_perm()});
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].has_value() && batch[1].has_value());
  EXPECT_EQ(batch[0]->cost, 4u);
  EXPECT_EQ(batch[1]->cost, 5u);
}

TEST_F(Backend3, ConcurrentMissesSerializeOnTheFallback) {
  CatalogServer server = make_server4(lib());
  server.set_fallback(make_search_fallback(lib()));
  const auto not_a = perm::Permutation::from_cycles("(1,5)(2,6)(3,7)(4,8)", 8);
  const std::vector<perm::Permutation> targets = {
      toffoli_perm(), peres_perm(), not_a * toffoli_perm(), g3_perm()};
  const std::vector<unsigned> expected = {5, 4, 5, 4};
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        const auto result = server.synthesize(targets[t]);
        if (!result.has_value() || result->cost != expected[t] ||
            !sim::realizes_permutation(result->circuit, targets[t])) {
          failures[t] = 1;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures, std::vector<int>(4, 0));
}

/// A fallback whose synthesize() blocks until released, so a test can hold
/// one fallback call in flight.
class BlockingFallback final : public SynthesisBackend {
 public:
  explicit BlockingFallback(const gates::GateLibrary& library)
      : library_(&library) {}

  [[nodiscard]] const gates::GateLibrary& library() const override {
    return *library_;
  }
  [[nodiscard]] unsigned max_cost() const override { return 8; }
  [[nodiscard]] BackendInfo info() const override {
    BackendInfo info;
    info.name = "blocking";
    info.max_cost = max_cost();
    info.library_fingerprint = library_->fingerprint();
    info.domain_fingerprint = library_->domain().fingerprint();
    return info;
  }
  [[nodiscard]] std::optional<BackendAnswer> locate(
      const perm::Permutation& /*target*/) override {
    return std::nullopt;
  }
  [[nodiscard]] std::optional<SynthesisResult> synthesize(
      const perm::Permutation& /*target*/) override {
    entered_.set_value();
    release_future_.wait();
    return std::nullopt;
  }

  void wait_entered() { entered_future_.wait(); }
  void release() { release_.set_value(); }

 private:
  const gates::GateLibrary* library_;
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> release_;
  std::future<void> release_future_ = release_.get_future();
};

TEST_F(Backend3, InFlightFallbackDoesNotBlockIntrospectionOrReplugging) {
  CatalogServer server = make_server4(lib());
  const auto blocking = std::make_shared<BlockingFallback>(lib());
  server.set_fallback(blocking);
  const auto adapter = server.as_backend();
  std::thread miss([&] { (void)server.synthesize(toffoli_perm()); });
  blocking->wait_entered();
  // The miss holds the fallback call; none of these may wait for it.
  auto probe = std::async(std::launch::async, [&] {
    const bool plugged = server.has_fallback();
    const bool deepens = adapter->info().deepens_on_miss;
    server.set_fallback(make_search_fallback(lib()));
    return plugged && deepens && server.has_fallback();
  });
  const bool finished = probe.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  blocking->release();
  miss.join();
  ASSERT_TRUE(finished) << "has_fallback/info/set_fallback waited for an "
                           "in-flight fallback call";
  EXPECT_TRUE(probe.get());
  // The replacement answers the next miss.
  const auto result = server.synthesize(toffoli_perm());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 5u);
}

// ---------------------------------------------------------------------------
// Exactness differentials at every forward-table depth. The search must put
// each target at its known cost whether the table reaches the last level an
// iteration can use (one backward step per iteration), stops at depth 4 (up
// to five backward steps), or cannot grow at all (backward only).

/// The NOT layer flipping the wires set in `mask`, as a permutation of the
/// 3-wire binary labels {1..8}.
perm::Permutation not_layer3(std::uint32_t mask) {
  std::vector<std::uint32_t> images(8);
  for (std::uint32_t l = 0; l < 8; ++l) images[l] = (l ^ mask) + 1;
  return perm::Permutation::from_images(std::move(images));
}

/// The cb = 7 closure of the 3-wire library, built once per process.
const FmcfEnumerator& closure7() {
  static const FmcfEnumerator closure = [] {
    FmcfEnumerator enumerator(library3());
    enumerator.run_to(7);
    return enumerator;
  }();
  return closure;
}

/// Every core g * c with g in G[7] and c a CNOT that the cb = 7 closure
/// does not hold: the closure proves cost > 7 and the witness plus the CNOT
/// realizes it with 8 gates, so each costs exactly 8.
const std::vector<perm::Permutation>& cost8_cores() {
  static const std::vector<perm::Permutation> cores = [] {
    std::vector<perm::Permutation> out;
    for (const perm::Permutation& g : closure7().g_set(7)) {
      for (const std::size_t f : library3().feynman_indices()) {
        gates::Cascade cnot(3);
        cnot.append(library3().gate(f));
        perm::Permutation core = g * cnot.to_binary_permutation();
        if (!closure7().find(core)) out.push_back(std::move(core));
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }();
  return cores;
}

/// Rows of the 3-wire forward table through depth 4 and through depth 5
/// (1 + 18 + 144 + 633 + 1830, plus 3366): a 32 KiB budget holds the first
/// and not the second, so that table stops at depth 4.
constexpr std::size_t kRowsToDepth4 = 2626;
constexpr std::size_t kRowsToDepth5 = 5992;
constexpr std::size_t kDepth4Budget = std::size_t(32) << 10;

struct TableBudget {
  const char* name;
  std::size_t bytes;
  /// Members checked per G level and cost-8 cores checked (0 = all): a
  /// backward-only query costs up to ~0.5 s at cost 8, so that variant
  /// checks evenly spaced samples.
  std::size_t per_level;
  std::size_t cost8_cores;
};

// Printed as its name: the default prints the name pointer's bytes, which
// ASLR changes on every run, and the printed value is part of the ctest name.
void PrintTo(const TableBudget& budget, std::ostream* os) {
  *os << budget.name;
}

std::string budget_name(const ::testing::TestParamInfo<TableBudget>& info) {
  return info.param.name;
}

/// `count` evenly spaced members of `items` (all of them when count is 0).
template <typename T>
std::vector<T> spaced_sample(const std::vector<T>& items, std::size_t count) {
  if (count == 0 || count >= items.size()) return items;
  std::vector<T> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(items[i * items.size() / count]);
  }
  return out;
}

/// A result realizes `target` at exactly `cost` gates.
void expect_realizes(const std::optional<SynthesisResult>& result,
                     const perm::Permutation& target, unsigned cost) {
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, cost);
  EXPECT_EQ(result->core.size(), cost);
  EXPECT_EQ(result->circuit.to_binary_permutation(), target);
}

class SearchExactness : public ::testing::TestWithParam<TableBudget> {
 protected:
  static SearchConfig config(unsigned max_cost) {
    SearchConfig config;
    config.max_cost = max_cost;
    config.visited_budget_bytes = GetParam().bytes;
    return config;
  }
};

TEST_P(SearchExactness, EveryGMemberGetsItsClosureCost) {
  TopologySearchBackend search(library3(), config(7));
  std::size_t checked = 0;
  for (unsigned k = 0; k <= 7; ++k) {
    for (const perm::Permutation& member :
         spaced_sample(closure7().g_set(k), GetParam().per_level)) {
      SCOPED_TRACE("G[" + std::to_string(k) + "] member " +
                   member.to_cycle_string());
      expect_realizes(search.synthesize(member), member, k);
      ++checked;
    }
  }
  if (GetParam().per_level == 0) {
    EXPECT_EQ(checked, 1260u);  // Table 2's total
  }
  if (GetParam().bytes == kDepth4Budget) {
    EXPECT_GE(search.stats().peak_memo_rows, kRowsToDepth4);
    EXPECT_LT(search.stats().peak_memo_rows, kRowsToDepth5);
  } else if (GetParam().bytes == 1) {
    EXPECT_EQ(search.stats().peak_memo_rows, 0u);
  }
}

TEST_P(SearchExactness, Cost8CoresAnswerAtEightAndMissAtSeven) {
  ASSERT_EQ(cost8_cores().size(), 84u);
  TopologySearchBackend search(library3(), config(8));
  TopologySearchBackend shallow(library3(), config(7));
  // Backward-only queries skip the coset sweep: every coset shares the core.
  const std::uint32_t masks = GetParam().cost8_cores == 0 ? 8 : 2;
  for (const perm::Permutation& core :
       spaced_sample(cost8_cores(), GetParam().cost8_cores)) {
    for (std::uint32_t mask = 0; mask < masks; ++mask) {
      const perm::Permutation target = not_layer3(mask * 3 % 8) * core;
      SCOPED_TRACE("target " + target.to_cycle_string());
      expect_realizes(search.synthesize(target), target, 8);
      EXPECT_FALSE(shallow.locate(target).has_value());
    }
  }
}

const TableBudget kFullTable{"FullTable", SearchConfig{}.visited_budget_bytes,
                             0, 0};
const TableBudget kTableToDepth4{"TableToDepth4", kDepth4Budget, 0, 0};
const TableBudget kBackwardOnly{"BackwardOnly", 1, 8, 1};

INSTANTIATE_TEST_SUITE_P(TableDepths, SearchExactness,
                         ::testing::Values(kFullTable, kTableToDepth4,
                                           kBackwardOnly),
                         budget_name);

/// A seeded sample of cost-9 cores: random cores outside the cb = 7 closure
/// that a full-table search places at 9. The old iterative-deepening DFS
/// agreed on every cost-8 core and on a sample of cost-9 cores; here the
/// depth-4 table, which reaches cost 9 through five backward steps, is the
/// independent check.
const std::vector<perm::Permutation>& cost9_sample() {
  static const std::vector<perm::Permutation> sample = [] {
    SearchConfig config;
    config.max_cost = 9;
    TopologySearchBackend classify(library3(), config);
    Rng rng(9);
    std::vector<perm::Permutation> out;
    while (out.size() < 12) {
      std::vector<std::uint32_t> images = {1, 2, 3, 4, 5, 6, 7, 8};
      for (std::size_t i = 7; i > 1; --i) {
        std::swap(images[i], images[1 + rng.below(i)]);
      }
      const auto core = perm::Permutation::from_images(std::move(images));
      if (closure7().find(core)) continue;
      const auto answer = classify.locate(core);
      if (answer.has_value() && answer->cost == 9) out.push_back(core);
    }
    return out;
  }();
  return sample;
}

class SearchCost9 : public SearchExactness {};

TEST_P(SearchCost9, SampleAnswersAtNineAndMissesAtEight) {
  TopologySearchBackend search(library3(), config(9));
  TopologySearchBackend shallow(library3(), config(8));
  for (const perm::Permutation& core : cost9_sample()) {
    const perm::Permutation target = not_layer3(5) * core;
    SCOPED_TRACE("target " + target.to_cycle_string());
    const auto result = search.synthesize(target);
    expect_realizes(result, target, 9);
    EXPECT_TRUE(sim::realizes_permutation(result->circuit, target));
    EXPECT_FALSE(shallow.locate(target).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(TableDepths, SearchCost9,
                         ::testing::Values(kFullTable, kTableToDepth4),
                         budget_name);

// ---------------------------------------------------------------------------
// History independence: an answer is a pure function of (target, library,
// config). synth_queries in qbench fails an op whose answer differs from an
// earlier one, and its self-test requires the search counters to repeat.

std::vector<perm::Permutation> history_targets() {
  const auto not_a = not_layer3(4);
  std::vector<perm::Permutation> targets = {
      g2_perm(), peres_perm(), not_a * toffoli_perm(), swap_bc_perm(),
      g4_perm(), toffoli_perm()};
  for (unsigned k = 5; k <= 7; ++k) {
    for (const auto& member : spaced_sample(closure7().g_set(k), 3)) {
      targets.push_back(member);
    }
  }
  for (const auto& core : spaced_sample(cost8_cores(), 3)) {
    targets.push_back(not_layer3(6) * core);
  }
  return targets;
}

TEST(SearchHistory, AnswersDoNotDependOnEarlierQueries) {
  const std::vector<perm::Permutation> targets = history_targets();
  for (const std::size_t budget :
       {SearchConfig{}.visited_budget_bytes, kDepth4Budget}) {
    SearchConfig config;
    config.max_cost = 8;
    config.visited_budget_bytes = budget;
    TopologySearchBackend in_order(library3(), config);
    TopologySearchBackend reversed(library3(), config);
    TopologySearchBackend batched(library3(), config);
    TopologySearchBackend warmed(library3(), config);
    // Warm-up: a cost-8 query grows the table as far as it will go.
    (void)warmed.synthesize(cost8_cores().back());

    std::vector<std::optional<SynthesisResult>> expected;
    for (const auto& target : targets) {
      expected.push_back(in_order.synthesize(target));
    }
    std::vector<std::optional<SynthesisResult>> backwards(targets.size());
    for (std::size_t i = targets.size(); i-- > 0;) {
      backwards[i] = reversed.synthesize(targets[i]);
    }
    const auto batch = batched.synthesize_batch(targets);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      SCOPED_TRACE("budget " + std::to_string(budget) + " target " +
                   targets[i].to_cycle_string());
      ASSERT_TRUE(expected[i].has_value());
      EXPECT_TRUE(sim::realizes_permutation(expected[i]->circuit, targets[i]));
      ASSERT_TRUE(backwards[i].has_value() && batch[i].has_value());
      EXPECT_EQ(backwards[i]->circuit, expected[i]->circuit);
      EXPECT_EQ(batch[i]->circuit, expected[i]->circuit);
      const auto again = warmed.synthesize(targets[i]);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->circuit, expected[i]->circuit);
    }
  }
}

TEST(SearchHistory, StatsRepeatOnFreshBackends) {
  const std::vector<perm::Permutation> targets = history_targets();
  SearchConfig config;
  config.max_cost = 8;
  TopologySearchBackend first(library3(), config);
  TopologySearchBackend second(library3(), config);
  for (const auto& target : targets) {
    (void)first.synthesize(target);
    (void)second.synthesize(target);
  }
  const SearchStats& a = first.stats();
  const SearchStats& b = second.stats();
  EXPECT_GT(a.nodes, 0u);
  EXPECT_GT(a.leaves, 0u);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.pruned_banned, b.pruned_banned);
  EXPECT_EQ(a.pruned_adjoint, b.pruned_adjoint);
  EXPECT_EQ(a.pruned_commuting, b.pruned_commuting);
  EXPECT_EQ(a.pruned_visited, b.pruned_visited);
  EXPECT_EQ(a.peak_memo_rows, b.peak_memo_rows);
  EXPECT_EQ(a.deepest_iteration, b.deepest_iteration);
  EXPECT_EQ(a.deepest_iteration, 8u);
  EXPECT_EQ(a.peak_memo_rows, 20748u);  // the table through depth 7
}

// ---------------------------------------------------------------------------
// 4 wires: spot check against the closure.

TEST(Backend4, SpotCheckCnotChainAgainstClosure) {
  const gates::GateLibrary library = gates::GateLibrary::standard(4);
  gates::Cascade chain(4);
  chain.append(gates::Gate::feynman(0, 1));
  chain.append(gates::Gate::feynman(1, 2));
  chain.append(gates::Gate::feynman(2, 3));
  const auto target = chain.to_binary_permutation();

  SearchConfig config;
  config.max_cost = 3;
  TopologySearchBackend search(library, config);
  const auto result = search.synthesize(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 3u);
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, target));

  McExpressor closure(library, 3);
  const auto expected = closure.minimal_cost(target);
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(result->cost, *expected);

  SearchConfig shallow;
  shallow.max_cost = 2;
  TopologySearchBackend miss(library, shallow);
  EXPECT_FALSE(miss.synthesize(target).has_value());  // proves cost == 3
}

TEST(Backend4, SampleMatchesTheClosureWithAndWithoutTable) {
  const gates::GateLibrary library = gates::GateLibrary::standard(4);
  FmcfEnumerator closure(library);
  closure.run_to(3);
  for (const std::size_t budget : {SearchConfig{}.visited_budget_bytes,
                                   std::size_t(1)}) {
    SearchConfig config;
    config.max_cost = 3;
    config.visited_budget_bytes = budget;
    TopologySearchBackend search(library, config);
    for (unsigned k = 1; k <= 3; ++k) {
      for (const perm::Permutation& member :
           spaced_sample(closure.g_set(k), 24)) {
        SCOPED_TRACE("budget " + std::to_string(budget) + " G[" +
                     std::to_string(k) + "] member " +
                     member.to_cycle_string());
        expect_realizes(search.synthesize(member), member, k);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 5 wires: the acceptance case — a target the in-memory closure cannot
// reach. Deepening the 5-wire closure to k = 4 takes a ~2.5 GiB spill (PR 7
// measurements in BENCH_pr7.json); the DFS engine answers the same question
// in tens of MiB by searching instead of storing.

TEST(Backend5, PeresEmbeddedBeyondInMemoryClosureReach) {
  const gates::GateLibrary library = gates::GateLibrary::standard(5);

  // Peres on wires {A, B, C}, identity on {D, E}.
  const auto peres = peres_perm();
  std::vector<std::uint32_t> images(32);
  for (std::uint32_t l = 0; l < 32; ++l) {
    const std::uint32_t abc = l >> 2;
    const std::uint32_t de = l & 3u;
    images[l] = ((peres.apply(abc + 1) - 1) << 2 | de) + 1;
  }
  const auto target = perm::Permutation::from_images(std::move(images));

  // Exhausting every reasonable cascade of <= 3 gates proves cost >= 4.
  SearchConfig shallow;
  shallow.max_cost = 3;
  TopologySearchBackend lower_bound(library, shallow);
  EXPECT_FALSE(lower_bound.synthesize(target).has_value());

  SearchConfig config;
  config.max_cost = 4;
  TopologySearchBackend search(library, config);
  const auto result = search.synthesize(target);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cost, 4u);
  EXPECT_TRUE(sim::realizes_permutation(result->circuit, target));
  // The whole search fits in the memo budget where the closure would spill.
  EXPECT_LT(search.stats().peak_memo_rows * 64u, std::size_t(1) << 28);
}

}  // namespace
}  // namespace qsyn::synth

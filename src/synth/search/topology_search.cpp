#include "synth/search/topology_search.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace qsyn::synth {

namespace {
constexpr std::size_t kNoGate = ~std::size_t(0);
}  // namespace

TopologySearchBackend::TopologySearchBackend(const gates::GateLibrary& library,
                                             SearchConfig config)
    : library_(&library),
      config_(config),
      wires_(library.domain().wires()),
      width_(library.domain().size()),
      binary_count_(library.domain().binary_count()),
      label_bytes_(width_ <= 256 ? 1 : 2),
      table_(binary_count_, width_, config.visited_budget_bytes) {
  const mvl::PatternDomain& domain = library.domain();
  const std::size_t gates = library.size();
  QSYN_CHECK(gates <= 0xff, "the forward table records gates in one byte");

  gate_tables_.resize(gates);
  gate_inverses_.resize(gates);
  gate_class_bits_.resize(gates);
  gate_adjoint_.resize(gates);
  for (std::size_t g = 0; g < gates; ++g) {
    const perm::Permutation& p = library.permutation(g);
    auto& table = gate_tables_[g];
    auto& inverse = gate_inverses_[g];
    table.resize(width_);
    inverse.resize(width_);
    for (std::size_t l = 0; l < width_; ++l) {
      table[l] = static_cast<std::uint16_t>(
          p.apply(static_cast<std::uint32_t>(l) + 1) - 1);
      inverse[table[l]] = static_cast<std::uint16_t>(l);
    }
    gate_class_bits_[g] = 1u << library.banned_class_of(g);
    gate_adjoint_[g] = library.adjoint_index(g);
  }
  gate_commutes_.assign(gates * gates, 0);
  for (std::size_t a = 0; a < gates; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      const std::uint8_t c = library.commutes(a, b) ? 1 : 0;
      gate_commutes_[a * gates + b] = c;
      gate_commutes_[b * gates + a] = c;
    }
  }
  label_banned_.resize(width_);
  for (std::size_t l = 0; l < width_; ++l) {
    label_banned_[l] = domain.banned_mask(static_cast<std::uint32_t>(l) + 1);
  }

  // Level 0 is the identity state. When not even it fits the budget the
  // table stays empty and every iteration matches against root_ directly.
  std::vector<std::uint16_t> identity(binary_count_);
  for (std::size_t s = 0; s < binary_count_; ++s) {
    identity[s] = static_cast<std::uint16_t>(s);
  }
  root_.resize(binary_count_ * label_bytes_);
  encoded_.resize(root_.size());
  encode_state(identity.data(), root_.data());
  (void)table_.admit(root_.data(), 0);
  capped_ = table_.saturated();
  level_end_.push_back(table_.rows());
}

BackendInfo TopologySearchBackend::info() const {
  BackendInfo info;
  info.name = "topology-search";
  info.exact = true;
  info.deepens_on_miss = true;  // every query searches; misses cost the most
  info.enumerates_implementations = false;
  info.max_cost = config_.max_cost;
  info.library_fingerprint = library_->fingerprint();
  info.domain_fingerprint = library_->domain().fingerprint();
  return info;
}

std::uint32_t TopologySearchBackend::banned_of(
    const std::uint16_t* state) const {
  std::uint32_t banned = 0;
  for (std::size_t s = 0; s < binary_count_; ++s) {
    banned |= label_banned_[state[s]];
  }
  return banned;
}

bool TopologySearchBackend::admissible(std::size_t gate,
                                       std::uint32_t banned) const {
  return !config_.use_banned_sets || (banned & gate_class_bits_[gate]) == 0;
}

void TopologySearchBackend::apply(const std::vector<std::uint16_t>& table,
                                  const std::uint16_t* in,
                                  std::uint16_t* out) const {
  for (std::size_t s = 0; s < binary_count_; ++s) out[s] = table[in[s]];
}

void TopologySearchBackend::encode_state(const std::uint16_t* state,
                                         std::uint8_t* out) const {
  for (std::size_t s = 0; s < binary_count_; ++s) {
    FlatPermStore::write_label(out, s, label_bytes_, state[s]);
  }
}

void TopologySearchBackend::decode_state(const std::uint8_t* row,
                                         std::uint16_t* out) const {
  for (std::size_t s = 0; s < binary_count_; ++s) {
    out[s] = static_cast<std::uint16_t>(
        FlatPermStore::read_label(row, s, label_bytes_));
  }
}

unsigned TopologySearchBackend::forward_depth(unsigned depth) {
  while (level_end_.size() - 1 < depth && !capped_) expand_level();
  stats_.peak_memo_rows = table_.rows();
  return std::min(depth, static_cast<unsigned>(level_end_.size() - 1));
}

void TopologySearchBackend::expand_level() {
  const std::size_t gates = gate_tables_.size();
  const unsigned depth = static_cast<unsigned>(level_end_.size() - 1);
  const std::size_t begin = depth == 0 ? 0 : level_end_[depth - 1];
  const std::size_t end = level_end_[depth];
  std::vector<std::uint16_t> state(binary_count_);
  std::vector<std::uint16_t> parent(binary_count_);
  std::vector<std::uint16_t> swapped(binary_count_);
  std::vector<std::uint16_t> child(binary_count_);
  for (std::size_t r = begin; r < end; ++r) {
    decode_state(table_.row(r), state.data());
    const std::uint32_t banned = banned_of(state.data());
    const std::size_t last = depth == 0 ? kNoGate : table_.gate(r);
    bool have_parent = false;
    std::uint32_t parent_banned = 0;
    ++stats_.nodes;
    for (std::size_t g = 0; g < gates; ++g) {
      if (!admissible(g, banned)) {
        ++stats_.pruned_banned;
        continue;
      }
      if (last != kNoGate) {
        if (config_.prune_adjoint_pairs && g == gate_adjoint_[last]) {
          ++stats_.pruned_adjoint;  // the pair cancels: never minimal
          continue;
        }
        if (config_.prune_commuting_pairs && g < last &&
            gate_commutes_[g * gates + last] != 0) {
          // The ascending order (g, last) from the parent reaches the same
          // child at the same depth when it is itself reasonable. If that
          // expansion is skipped too, it is for a strictly larger gate, so
          // the chain ends in a kept one and the child still enters this
          // level.
          if (!have_parent) {
            apply(gate_inverses_[last], state.data(), parent.data());
            parent_banned = banned_of(parent.data());
            have_parent = true;
          }
          if (admissible(g, parent_banned)) {
            apply(gate_tables_[g], parent.data(), swapped.data());
            if (admissible(last, banned_of(swapped.data()))) {
              ++stats_.pruned_commuting;
              continue;
            }
          }
        }
      }
      apply(gate_tables_[g], state.data(), child.data());
      encode_state(child.data(), encoded_.data());
      if (!table_.admit(encoded_.data(), depth + 1,
                        static_cast<std::uint8_t>(g))) {
        ++stats_.pruned_visited;
        continue;
      }
      if (table_.saturated()) {
        capped_ = true;  // level depth + 1 does not fit: never use it
        return;
      }
    }
  }
  level_end_.push_back(table_.rows());
}

bool TopologySearchBackend::record_leaf(const std::uint8_t* encoded,
                                        unsigned a) {
  const std::size_t row = table_.find(encoded);
  unsigned depth = 0;
  if (row != VisitedSet::kAbsent) {
    depth = table_.depth(row);
  } else if (std::memcmp(encoded, root_.data(), root_.size()) != 0) {
    return false;
  }  // else the identity, at depth 0 in a table too small to hold it
  if (depth < a || depth >= best_depth_) return false;
  best_depth_ = depth;
  best_row_ = row;
  best_path_ = path_;
  return depth == a;  // nothing shallower is left to find
}

bool TopologySearchBackend::backward(unsigned step, unsigned steps, unsigned a,
                                     std::size_t next_gate) {
  const std::size_t gates = gate_tables_.size();
  const std::uint16_t* cur = states_.data() + step * binary_count_;
  std::uint16_t* pred = states_.data() + (step + 1) * binary_count_;
  ++stats_.nodes;
  for (std::size_t g = 0; g < gates; ++g) {
    if (next_gate != kNoGate && config_.prune_adjoint_pairs &&
        g == gate_adjoint_[next_gate]) {
      ++stats_.pruned_adjoint;
      continue;
    }
    apply(gate_inverses_[g], cur, pred);
    const std::uint32_t pred_banned = banned_of(pred);
    if (!admissible(g, pred_banned)) {
      ++stats_.pruned_banned;
      continue;
    }
    if (next_gate != kNoGate && config_.prune_commuting_pairs &&
        g > next_gate && gate_commutes_[g * gates + next_gate] != 0 &&
        admissible(next_gate, pred_banned)) {
      // Keep the ascending order (next_gate, g) from pred when it is
      // reasonable too: both orders end in the same state.
      apply(gate_tables_[next_gate], pred, scratch_.data());
      if (admissible(g, banned_of(scratch_.data()))) {
        ++stats_.pruned_commuting;
        continue;
      }
    }
    path_[step] = g;
    if (step + 1 == steps) {
      ++stats_.leaves;
      encode_state(pred, encoded_.data());
      if (record_leaf(encoded_.data(), a)) return true;
      continue;
    }
    if (backward(step + 1, steps, a, g)) return true;
  }
  return false;
}

std::vector<std::size_t> TopologySearchBackend::forward_path(
    std::size_t row) const {
  std::vector<std::size_t> gates;
  if (row == VisitedSet::kAbsent) return gates;  // the implicit identity
  std::vector<std::uint16_t> state(binary_count_);
  std::vector<std::uint8_t> encoded(table_.row_stride());
  decode_state(table_.row(row), state.data());
  for (unsigned depth = table_.depth(row); depth > 0; --depth) {
    const std::size_t g = table_.gate(row);
    gates.push_back(g);
    if (depth == 1) break;
    apply(gate_inverses_[g], state.data(), state.data());
    encode_state(state.data(), encoded.data());
    row = table_.find(encoded.data());
    QSYN_CHECK(row != VisitedSet::kAbsent && table_.depth(row) == depth - 1,
               "forward table lost a witness predecessor");
  }
  std::reverse(gates.begin(), gates.end());
  return gates;
}

std::optional<SynthesisResult> TopologySearchBackend::synthesize(
    const perm::Permutation& target) {
  const NotStripped stripped = strip_not_prefix(wires_, target);
  if (stripped.core.is_identity()) {
    return assemble_result(wires_, stripped, gates::Cascade(wires_));
  }
  // The core's 0-based image row over the binary labels: the exact state a
  // matching cascade ends in.
  states_.resize(binary_count_);
  for (std::size_t s = 0; s < binary_count_; ++s) {
    states_[s] = static_cast<std::uint16_t>(
        stripped.core.apply(static_cast<std::uint32_t>(s) + 1) - 1);
  }
  scratch_.resize(binary_count_);
  for (unsigned limit = 1; limit <= config_.max_cost;) {
    const unsigned a = forward_depth(limit - 1);
    const unsigned steps = limit - a;
    // Iterations limit..deepest + steps walk the same backward tree: with one
    // step every built level serves one of them, and past the table
    // (steps > 1) deepest == a. So one walk accepts leaves at depths
    // a..deepest, and its shallowest leaf (the first found on ties) is the
    // first of those iterations to hit. The table is never built past
    // max_cost - 1, so no accepted leaf costs more than max_cost.
    const auto deepest = static_cast<unsigned>(level_end_.size() - 1);
    states_.resize(static_cast<std::size_t>(steps + 1) * binary_count_);
    path_.resize(steps);
    best_depth_ = deepest + 1;
    (void)backward(0, steps, a, kNoGate);
    const bool hit = best_depth_ <= deepest;
    const unsigned reached = (hit ? best_depth_ : deepest) + steps;
    stats_.deepest_iteration = std::max(stats_.deepest_iteration, reached);
    if (!hit) {
      limit = reached + 1;
      continue;
    }
    // Every shallower iteration completed without a hit: minimal.
    gates::Cascade core(wires_);
    for (const std::size_t g : forward_path(best_row_)) {
      core.append(library_->gate(g));
    }
    for (std::size_t i = steps; i-- > 0;) {
      core.append(library_->gate(best_path_[i]));
    }
    return assemble_result(wires_, stripped, std::move(core));
  }
  return std::nullopt;
}

std::optional<BackendAnswer> TopologySearchBackend::locate(
    const perm::Permutation& target) {
  const auto result = synthesize(target);
  if (!result.has_value()) return std::nullopt;
  BackendAnswer answer;
  answer.cost = result->cost;
  answer.not_prefix = result->not_prefix;
  return answer;
}

}  // namespace qsyn::synth

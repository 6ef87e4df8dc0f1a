#include "idps/aho_corasick.hpp"

#include <queue>
#include <stdexcept>

namespace endbox::idps {

void AhoCorasick::add_pattern(ByteView pattern, int pattern_id) {
  if (built_) throw std::logic_error("AhoCorasick: add_pattern after build");
  if (pattern.empty()) return;
  std::int32_t state = 0;
  for (std::uint8_t byte : pattern) {
    std::int32_t next = nodes_[static_cast<std::size_t>(state)].next[byte];
    if (next < 0) {
      next = static_cast<std::int32_t>(nodes_.size());
      nodes_[static_cast<std::size_t>(state)].next[byte] = next;
      nodes_.emplace_back();
    }
    state = next;
  }
  std::int32_t index = static_cast<std::int32_t>(pattern_ids_.size());
  pattern_ids_.push_back(pattern_id);
  pattern_lengths_.push_back(pattern.size());
  pattern_bytes_.emplace_back(pattern.begin(), pattern.end());
  max_pattern_length_ = std::max(max_pattern_length_, pattern.size());
  nodes_[static_cast<std::size_t>(state)].outputs.push_back(index);
}

void AhoCorasick::build(bool prefilter_case_insensitive,
                        std::size_t prefilter_max_width) {
  if (built_) return;
  // BFS order (root first): output links point at strictly shallower
  // states, so a single pass in this order can resolve the CSR output
  // lists below.
  std::vector<std::int32_t> bfs_order;
  bfs_order.reserve(nodes_.size());
  bfs_order.push_back(0);
  std::queue<std::int32_t> bfs;
  // Depth-1 nodes fail to the root; missing root edges loop to root.
  for (int byte = 0; byte < 256; ++byte) {
    std::int32_t child = nodes_[0].next[byte];
    if (child < 0) {
      nodes_[0].next[byte] = 0;
    } else {
      nodes_[static_cast<std::size_t>(child)].fail = 0;
      bfs.push(child);
    }
  }
  while (!bfs.empty()) {
    std::int32_t state = bfs.front();
    bfs.pop();
    bfs_order.push_back(state);
    Node& node = nodes_[static_cast<std::size_t>(state)];
    // Output link: nearest proper-suffix state that has outputs.
    const Node& fail_node = nodes_[static_cast<std::size_t>(node.fail)];
    node.output_link = fail_node.outputs.empty() ? fail_node.output_link : node.fail;

    for (int byte = 0; byte < 256; ++byte) {
      std::int32_t child = node.next[byte];
      std::int32_t fail_next = nodes_[static_cast<std::size_t>(node.fail)].next[byte];
      if (child < 0) {
        node.next[byte] = fail_next;  // goto-function completion
      } else {
        nodes_[static_cast<std::size_t>(child)].fail = fail_next;
        bfs.push(child);
      }
    }
  }

  // Flatten: one state-major transition table plus CSR output lists.
  // Each state's list is its own outputs followed by the outputs
  // inherited through its output link — the output link's list is
  // already complete when we get here because BFS order visits
  // shallower states first.
  transitions_.resize(nodes_.size() * 256);
  for (std::size_t s = 0; s < nodes_.size(); ++s)
    std::copy(nodes_[s].next.begin(), nodes_[s].next.end(),
              transitions_.begin() + static_cast<std::ptrdiff_t>(s * 256));

  out_start_.assign(nodes_.size() + 1, 0);
  out_patterns_.clear();
  std::vector<std::uint32_t> list_begin(nodes_.size(), 0);
  std::vector<std::uint32_t> list_len(nodes_.size(), 0);
  for (std::int32_t s : bfs_order) {
    const Node& node = nodes_[static_cast<std::size_t>(s)];
    std::uint32_t begin = static_cast<std::uint32_t>(out_patterns_.size());
    out_patterns_.insert(out_patterns_.end(), node.outputs.begin(),
                         node.outputs.end());
    if (node.output_link >= 0) {
      std::size_t link = static_cast<std::size_t>(node.output_link);
      // Self-insert from out_patterns_ would invalidate iterators on
      // growth; indices are stable.
      for (std::uint32_t i = 0; i < list_len[link]; ++i)
        out_patterns_.push_back(out_patterns_[list_begin[link] + i]);
    }
    list_begin[static_cast<std::size_t>(s)] = begin;
    list_len[static_cast<std::size_t>(s)] =
        static_cast<std::uint32_t>(out_patterns_.size()) - begin;
  }
  // The lists were emitted in BFS order; CSR offsets must be state
  // order. Rebuild the concatenation state-major.
  std::vector<std::int32_t> ordered;
  ordered.reserve(out_patterns_.size());
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    out_start_[s] = static_cast<std::uint32_t>(ordered.size());
    for (std::uint32_t i = 0; i < list_len[s]; ++i)
      ordered.push_back(out_patterns_[list_begin[s] + i]);
  }
  out_start_[nodes_.size()] = static_cast<std::uint32_t>(ordered.size());
  out_patterns_ = std::move(ordered);

  // First tier: the literal prefilter, compiled from the same pattern
  // set. The retained pattern bytes exist only for this step.
  std::vector<ByteView> views(pattern_bytes_.begin(), pattern_bytes_.end());
  prefilter_.build(views, prefilter_case_insensitive, prefilter_max_width);
  pattern_bytes_.clear();
  pattern_bytes_.shrink_to_fit();
  built_ = true;
}

std::int32_t AhoCorasick::step(std::int32_t state, std::uint8_t byte) const {
  return nodes_[static_cast<std::size_t>(state)].next[byte];
}

std::size_t AhoCorasick::match(
    ByteView text, const std::function<bool(const AcMatch&)>& on_match) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  std::size_t count = 0;
  std::size_t state = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = static_cast<std::size_t>(transitions[(state << 8) | text[i]]);
    std::uint32_t begin = out_start[state];
    std::uint32_t end = out_start[state + 1];
    for (; begin != end; ++begin) {
      ++count;
      if (!on_match({pattern_ids_[static_cast<std::size_t>(
                         out_patterns_[begin])],
                     i + 1}))
        return count;
    }
  }
  return count;
}

std::size_t AhoCorasick::match_multi(
    std::span<const ByteView> texts,
    const std::function<bool(std::size_t, const AcMatch&)>& on_match) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  // 16 interleaved walks keep the load buffers busy without spilling
  // the lane state out of registers/L1.
  constexpr std::size_t kLanes = 16;
  std::size_t count = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t base = 0; base < texts.size(); base += kLanes) {
    std::size_t lanes = std::min(kLanes, texts.size() - base);
    std::uint32_t state[kLanes] = {};
    const std::uint8_t* data[kLanes];
    std::size_t len[kLanes];
    std::size_t max_len = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      data[l] = texts[base + l].data();
      len[l] = texts[base + l].size();
      max_len = std::max(max_len, len[l]);
    }
    for (std::size_t i = 0; i < max_len; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        if (i >= len[l]) continue;
        std::uint32_t next = static_cast<std::uint32_t>(
            transitions[(static_cast<std::size_t>(state[l]) << 8) | data[l][i]]);
        state[l] = next;
        std::uint32_t begin = out_start[next];
        std::uint32_t end = out_start[next + 1];
        for (; begin != end; ++begin) {
          ++count;
          if (!on_match(base + l,
                        {pattern_ids_[static_cast<std::size_t>(
                             out_patterns_[begin])],
                         i + 1}))
            return count;
        }
      }
    }
  }
  return count;
}

std::size_t AhoCorasick::match_resume(
    ByteView text, std::uint32_t* state,
    const std::function<bool(const AcMatch&)>& on_match) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  std::size_t count = 0;
  std::size_t s = *state;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t i = 0; i < text.size(); ++i) {
    s = static_cast<std::size_t>(transitions[(s << 8) | text[i]]);
    std::uint32_t begin = out_start[s];
    std::uint32_t end = out_start[s + 1];
    for (; begin != end; ++begin) {
      ++count;
      if (!on_match({pattern_ids_[static_cast<std::size_t>(
                         out_patterns_[begin])],
                     i + 1})) {
        *state = static_cast<std::uint32_t>(s);
        return count;
      }
    }
  }
  *state = static_cast<std::uint32_t>(s);
  return count;
}

std::size_t AhoCorasick::match_multi_resume(
    std::span<const ByteView> texts, std::uint32_t* states,
    const std::function<bool(std::size_t, const AcMatch&)>& on_match) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  constexpr std::size_t kLanes = 16;
  std::size_t count = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t base = 0; base < texts.size(); base += kLanes) {
    std::size_t lanes = std::min(kLanes, texts.size() - base);
    std::uint32_t state[kLanes];
    const std::uint8_t* data[kLanes];
    std::size_t len[kLanes];
    std::size_t max_len = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      state[l] = states[base + l];
      data[l] = texts[base + l].data();
      len[l] = texts[base + l].size();
      max_len = std::max(max_len, len[l]);
    }
    for (std::size_t i = 0; i < max_len; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        if (i >= len[l]) continue;
        std::uint32_t next = static_cast<std::uint32_t>(
            transitions[(static_cast<std::size_t>(state[l]) << 8) | data[l][i]]);
        state[l] = next;
        std::uint32_t begin = out_start[next];
        std::uint32_t end = out_start[next + 1];
        for (; begin != end; ++begin) {
          ++count;
          if (!on_match(base + l,
                        {pattern_ids_[static_cast<std::size_t>(
                             out_patterns_[begin])],
                         i + 1})) {
            for (std::size_t k = 0; k < lanes; ++k) states[base + k] = state[k];
            return count;
          }
        }
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) states[base + l] = state[l];
  }
  return count;
}

std::vector<AcMatch> AhoCorasick::match(ByteView text) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  std::vector<AcMatch> matches;
  std::size_t state = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = static_cast<std::size_t>(transitions[(state << 8) | text[i]]);
    for (std::uint32_t o = out_start[state]; o != out_start[state + 1]; ++o)
      matches.push_back(
          {pattern_ids_[static_cast<std::size_t>(out_patterns_[o])], i + 1});
  }
  return matches;
}

bool AhoCorasick::contains_any(ByteView text) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  std::size_t state = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = static_cast<std::size_t>(transitions[(state << 8) | text[i]]);
    if (out_start[state] != out_start[state + 1]) return true;
  }
  return false;
}

std::size_t AhoCorasick::match_reference(
    ByteView text, const std::function<bool(const AcMatch&)>& on_match) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  std::size_t count = 0;
  std::int32_t state = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = step(state, text[i]);
    for (std::int32_t s = state; s >= 0;
         s = nodes_[static_cast<std::size_t>(s)].output_link) {
      for (std::int32_t index : nodes_[static_cast<std::size_t>(s)].outputs) {
        ++count;
        if (!on_match(
                {pattern_ids_[static_cast<std::size_t>(index)], i + 1}))
          return count;
      }
      if (nodes_[static_cast<std::size_t>(s)].outputs.empty() &&
          nodes_[static_cast<std::size_t>(s)].output_link < 0)
        break;
    }
  }
  return count;
}

std::vector<AcMatch> AhoCorasick::match_reference(ByteView text) const {
  std::vector<AcMatch> matches;
  match_reference(text, [&](const AcMatch& m) {
    matches.push_back(m);
    return true;
  });
  return matches;
}

}  // namespace endbox::idps

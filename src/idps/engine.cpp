#include "idps/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace endbox::idps {

namespace {
void to_lower_into(ByteView data, Bytes& out) {
  out.resize(data.size());
  std::transform(data.begin(), data.end(), out.begin(), ascii_lower);
}

Bytes to_lower(ByteView data) {
  Bytes out;
  to_lower_into(data, out);
  return out;
}
}  // namespace

IdpsEngine::IdpsEngine(std::vector<SnortRule> rules) : rules_(std::move(rules)) {
  if (rules_.size() > (1u << 23))
    throw std::invalid_argument("IdpsEngine: too many rules");
  std::size_t width_cap = 4;  // shortest content, at most the widest fragment
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const auto& contents = rules_[r].contents;
    if (contents.size() > 255)
      throw std::invalid_argument("IdpsEngine: too many contents in rule");
    for (std::size_t c = 0; c < contents.size(); ++c) {
      int id = static_cast<int>(r << 8 | c);
      if (!contents[c].bytes.empty())
        width_cap = std::min(width_cap, contents[c].bytes.size());
      if (contents[c].nocase) {
        ci_automaton_.add_pattern(to_lower(contents[c].bytes), id);
      } else {
        cs_automaton_.add_pattern(contents[c].bytes, id);
      }
    }
  }
  // Both prefilters share one fragment width so tier 1 screens both
  // sets in one fused pass. The nocase prefilter admits both cases of
  // every fragment byte and folds before its exact confirm, so tier 1
  // scans the raw text; only confirm slices pay for lowering.
  cs_automaton_.build(/*prefilter_case_insensitive=*/false, width_cap);
  ci_automaton_.build(/*prefilter_case_insensitive=*/true, width_cap);
  // A 1-byte content anywhere in the rule set disables the prefilter
  // for the whole engine: it has no fragment, and a bucket miss would
  // silently skip it.
  prefilter_enabled_ = cs_automaton_.prefilter().usable() &&
                       ci_automaton_.prefilter().usable();
  std::size_t max_len = std::max(cs_automaton_.max_pattern_length(),
                                 ci_automaton_.max_pattern_length());
  stream_tail_len_ = max_len > 0 ? max_len - 1 : 0;
}

bool IdpsEngine::header_matches(const SnortRule& rule,
                                const net::Packet& packet) const {
  if (rule.proto && packet.proto != *rule.proto) return false;
  if (!rule.src.matches(packet.src)) return false;
  if (!rule.dst.matches(packet.dst)) return false;
  if (packet.proto != net::IpProto::Icmp) {
    if (!rule.src_port.matches(packet.src_port)) return false;
    if (!rule.dst_port.matches(packet.dst_port)) return false;
  }
  return true;
}

void IdpsEngine::reset_hits(InspectScratch& scratch) const {
  // The table is zeroed wholesale only when (re)sized; afterwards just
  // the rules the previous packet hit are cleared — content hits are
  // rare, so a warm scratch skips the O(rules) wipe entirely.
  if (scratch.content_hits.size() != rules_.size()) {
    scratch.content_hits.assign(rules_.size(), 0);
  } else {
    for (std::uint32_t rule : scratch.touched) scratch.content_hits[rule] = 0;
  }
  scratch.touched.clear();
}

void IdpsEngine::record_hit(InspectScratch& scratch, int pattern_id) {
  std::size_t rule_index = static_cast<std::size_t>(pattern_id) >> 8;
  std::size_t content_index = static_cast<std::size_t>(pattern_id) & 0xff;
  if (content_index >= 64) return;
  std::uint64_t& bits = scratch.content_hits[rule_index];
  if (bits == 0)
    scratch.touched.push_back(static_cast<std::uint32_t>(rule_index));
  bits |= 1ull << content_index;
}

IdpsVerdict IdpsEngine::evaluate_hits(const net::Packet& packet,
                                      InspectScratch& scratch, bool any_hit,
                                      StreamMatchState* state) {
  IdpsVerdict verdict;
  // A rule can only fire (or newly complete) when this scan hit.
  if (!any_hit) return verdict;
  // Only touched rules have content hits, so walking them in ascending
  // rule-index order gives the same first-firing sid as a walk over
  // every rule, without the O(rules) loop.
  std::sort(scratch.touched.begin(), scratch.touched.end());
  for (std::uint32_t r : scratch.touched) {
    const SnortRule& rule = rules_[r];
    if (rule.contents.empty()) continue;
    std::uint64_t want =
        rule.contents.size() >= 64 ? ~0ull : (1ull << rule.contents.size()) - 1;
    if ((scratch.content_hits[r] & want) != want) continue;
    if (state != nullptr) {
      if (std::find(state->completed.begin(), state->completed.end(), r) !=
          state->completed.end())
        continue;
      // Record completion even when the header check fails: header
      // constraints are flow-constant, so the rule can never fire later
      // in this flow and need not be re-evaluated per segment.
      state->completed.push_back(r);
    }
    if (!header_matches(rule, packet)) continue;
    if (!verdict.matched) {
      verdict.matched = true;
      verdict.sid = rule.sid;
    }
    if (rule.action == RuleAction::Drop) verdict.drop = true;
    if (rule.action == RuleAction::Alert) ++alerts_;
  }
  if (verdict.drop) ++drops_;
  // Flow-kill policy (state->drop_flow) belongs to the caller: the
  // element also kills flows on DROP-mode alert matches, and owns the
  // once-per-flow kill accounting.
  return verdict;
}

IdpsVerdict IdpsEngine::inspect(const net::Packet& packet) {
  InspectScratch scratch;
  return inspect(packet, packet.payload, scratch);
}

IdpsVerdict IdpsEngine::inspect(const net::Packet& packet, ByteView payload,
                                InspectScratch& scratch) {
  if (!prefilter_enabled_) {
    ++prefilter_stats_.fallback_scans;
    return inspect_reference(packet, payload, scratch);
  }
  ++packets_inspected_;
  prefilter_stats_.prefiltered_bytes += payload.size();
  reset_hits(scratch);
  // Single-pointer capture keeps the callback inside std::function's
  // small-object buffer — no allocation per scan.
  struct RecordCtx {
    InspectScratch* scratch;
    bool any_hit = false;
  } ctx{&scratch};
  auto record = [&ctx](const AcMatch& m) {
    record_hit(*ctx.scratch, m.pattern_id);
    ctx.any_hit = true;
    return true;
  };
  // Tier 1 screens the payload; tier 2 confirms only candidate runs,
  // each walked from the root (a run contains every match it
  // witnesses whole, so no cross-run automaton state is needed). Rule
  // evaluation only consumes the hit set, so slice-relative offsets
  // need no rebasing here.
  screen(payload, scratch);
  for (const CandidateRun& run : scratch.runs)
    cs_automaton_.match(payload.subspan(run.begin, run.end - run.begin),
                        record);
  for (const CandidateRun& run : scratch.ci_runs) {
    to_lower_into(payload.subspan(run.begin, run.end - run.begin),
                  scratch.lowered);
    ci_automaton_.match(scratch.lowered, record);
  }
  return evaluate_hits(packet, scratch, ctx.any_hit);
}

void IdpsEngine::screen(ByteView text, InspectScratch& scratch) {
  scratch.runs.clear();
  scratch.ci_runs.clear();
  LiteralPrefilter::find_runs(cs_automaton_.prefilter(),
                              ci_automaton_.prefilter(), text, scratch.runs,
                              scratch.ci_runs);
  prefilter_stats_.confirmed_windows +=
      scratch.runs.size() + scratch.ci_runs.size();
}

IdpsVerdict IdpsEngine::inspect_reference(const net::Packet& packet,
                                          ByteView payload,
                                          InspectScratch& scratch) {
  ++packets_inspected_;
  reset_hits(scratch);
  struct RecordCtx {
    InspectScratch* scratch;
    bool any_hit = false;
  } ctx{&scratch};
  auto record = [&ctx](const AcMatch& m) {
    record_hit(*ctx.scratch, m.pattern_id);
    ctx.any_hit = true;
    return true;
  };
  cs_automaton_.match(payload, record);
  if (ci_automaton_.pattern_count() > 0) {
    to_lower_into(payload, scratch.lowered);
    ci_automaton_.match(scratch.lowered, record);
  }
  return evaluate_hits(packet, scratch, ctx.any_hit);
}

void IdpsEngine::inspect_batch(std::span<const net::Packet* const> packets,
                               std::span<const ByteView> payloads,
                               BatchScratch& scratch, IdpsVerdict* verdicts) {
  std::size_t n = packets.size();
  if (!prefilter_enabled_) {
    prefilter_stats_.fallback_scans += n;
    inspect_batch_reference(packets, payloads, scratch, verdicts);
    return;
  }
  packets_inspected_ += n;
  if (scratch.matches.size() < n) scratch.matches.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch.matches[i].clear();

  // Tier 1 screens each payload sequentially (the prefilter kernel is
  // data-parallel within one buffer, not latency-bound like the
  // automaton walk); the surviving candidate slices of the whole burst
  // are then confirmed with one interleaved multi-stream walk per
  // automaton, each slice attributed back to its packet.
  scratch.views.clear();
  scratch.owner.clear();
  scratch.ci_views.clear();
  scratch.ci_owner.clear();
  std::size_t lowered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prefilter_stats_.prefiltered_bytes += payloads[i].size();
    screen(payloads[i], scratch.rules);
    for (const CandidateRun& run : scratch.rules.runs) {
      scratch.views.push_back(
          payloads[i].subspan(run.begin, run.end - run.begin));
      scratch.owner.push_back(static_cast<std::uint32_t>(i));
    }
    for (const CandidateRun& run : scratch.rules.ci_runs) {
      if (scratch.lowered.size() <= lowered) scratch.lowered.resize(lowered + 1);
      to_lower_into(payloads[i].subspan(run.begin, run.end - run.begin),
                    scratch.lowered[lowered]);
      scratch.ci_views.push_back(scratch.lowered[lowered++]);
      scratch.ci_owner.push_back(static_cast<std::uint32_t>(i));
    }
  }
  struct RecordCtx {
    BatchScratch* scratch;
    const std::uint32_t* owner;
  } ctx{&scratch, scratch.owner.data()};
  auto record = [&ctx](std::size_t stream, const AcMatch& m) {
    ctx.scratch->matches[ctx.owner[stream]].push_back(m);
    return true;
  };
  cs_automaton_.match_multi({scratch.views.data(), scratch.views.size()},
                            record);
  ctx.owner = scratch.ci_owner.data();
  ci_automaton_.match_multi({scratch.ci_views.data(), scratch.ci_views.size()},
                            record);

  for (std::size_t i = 0; i < n; ++i) {
    reset_hits(scratch.rules);
    for (const AcMatch& m : scratch.matches[i])
      record_hit(scratch.rules, m.pattern_id);
    verdicts[i] =
        evaluate_hits(*packets[i], scratch.rules, !scratch.matches[i].empty());
  }
}

void IdpsEngine::inspect_batch_reference(
    std::span<const net::Packet* const> packets,
    std::span<const ByteView> payloads, BatchScratch& scratch,
    IdpsVerdict* verdicts) {
  std::size_t n = packets.size();
  packets_inspected_ += n;
  if (scratch.matches.size() < n) scratch.matches.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch.matches[i].clear();

  struct RecordCtx {
    BatchScratch* scratch;
  } ctx{&scratch};
  auto record = [&ctx](std::size_t stream, const AcMatch& m) {
    ctx.scratch->matches[stream].push_back(m);
    return true;
  };
  cs_automaton_.match_multi(payloads, record);
  if (ci_automaton_.pattern_count() > 0) {
    if (scratch.lowered.size() < n) scratch.lowered.resize(n);
    if (scratch.views.size() < n) scratch.views.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      to_lower_into(payloads[i], scratch.lowered[i]);
      scratch.views[i] = scratch.lowered[i];
    }
    ci_automaton_.match_multi({scratch.views.data(), n}, record);
  }

  // Rule evaluation is per packet and cheap (content hits are rare);
  // replaying the recorded matches into the sparse hit table makes the
  // verdicts bit-identical to per-packet inspection.
  for (std::size_t i = 0; i < n; ++i) {
    reset_hits(scratch.rules);
    for (const AcMatch& m : scratch.matches[i])
      record_hit(scratch.rules, m.pattern_id);
    verdicts[i] =
        evaluate_hits(*packets[i], scratch.rules, !scratch.matches[i].empty());
  }
}

void IdpsEngine::load_stream_hits(const StreamMatchState& state,
                                  InspectScratch& scratch) const {
  for (const auto& [rule, bits] : state.hits) {
    scratch.content_hits[rule] = bits;
    scratch.touched.push_back(rule);
  }
}

void IdpsEngine::persist_stream_hits(StreamMatchState& state,
                                     const InspectScratch& scratch) const {
  state.hits.clear();
  for (std::uint32_t rule : scratch.touched) {
    if (std::uint64_t bits = scratch.content_hits[rule]; bits != 0)
      state.hits.emplace_back(rule, bits);
  }
}

IdpsVerdict IdpsEngine::inspect_stream(const net::Packet& packet, ByteView chunk,
                                       StreamMatchState& state,
                                       InspectScratch& scratch,
                                       std::span<std::uint8_t> mask) {
  if (!prefilter_enabled_) {
    ++prefilter_stats_.fallback_scans;
    return inspect_stream_reference(packet, chunk, state, scratch, mask);
  }
  ++packets_inspected_;
  reset_hits(scratch);
  load_stream_hits(state, scratch);

  // Tail carry: scanning tail+chunk guarantees any match ending in
  // this chunk — its length is at most maxlen, so it starts no more
  // than maxlen-1 bytes before the chunk — lies wholly inside the
  // combined buffer, boundary-straddling literals included. Matches
  // ending inside the tail (combined end <= tail_len) were reported by
  // the chunk that delivered those bytes and are suppressed.
  const std::size_t tail_len = state.prefilter_tail.size();
  scratch.combined.assign(state.prefilter_tail.begin(),
                          state.prefilter_tail.end());
  scratch.combined.insert(scratch.combined.end(), chunk.begin(), chunk.end());
  ByteView combined = scratch.combined;

  struct RecordCtx {
    IdpsEngine* self;
    InspectScratch* scratch;
    StreamMatchState* state;
    std::uint8_t* mask_data;
    std::size_t mask_size;
    std::size_t tail_len;
    std::size_t bias = 0;  ///< current run's offset within `combined`
    bool new_hit = false;
  } ctx{this, &scratch, &state, mask.data(), mask.size(), tail_len};
  auto record = [&ctx](const AcMatch& m) {
    std::size_t combined_end = m.end_offset + ctx.bias;
    if (combined_end <= ctx.tail_len) return true;  // earlier chunk's match
    std::size_t end = combined_end - ctx.tail_len;  // chunk-relative
    record_hit(*ctx.scratch, m.pattern_id);
    ctx.new_hit = true;
    std::size_t plen = ctx.self->content_length(m.pattern_id);
    // An end offset inside the pattern means the match began in an
    // earlier segment — the split delivery per-packet scanning misses.
    if (end < plen) ++ctx.state->cross_segment_matches;
    if (ctx.mask_size != 0) {
      std::size_t start = end > plen ? end - plen : 0;
      for (std::size_t j = start; j < end; ++j) ctx.mask_data[j] = 'X';
      ctx.state->bytes_masked += end - start;
    }
    return true;
  };
  prefilter_stats_.prefiltered_bytes += chunk.size();
  screen(combined, scratch);
  for (const CandidateRun& run : scratch.runs) {
    ctx.bias = run.begin;
    cs_automaton_.match(combined.subspan(run.begin, run.end - run.begin),
                        record);
  }
  for (const CandidateRun& run : scratch.ci_runs) {
    ctx.bias = run.begin;
    to_lower_into(combined.subspan(run.begin, run.end - run.begin),
                  scratch.lowered);
    ci_automaton_.match(scratch.lowered, record);
  }
  state.bytes_scanned += chunk.size();
  std::size_t keep = std::min(scratch.combined.size(), stream_tail_len_);
  state.prefilter_tail.assign(scratch.combined.end() -
                                  static_cast<std::ptrdiff_t>(keep),
                              scratch.combined.end());

  IdpsVerdict verdict = evaluate_hits(packet, scratch, ctx.new_hit, &state);
  persist_stream_hits(state, scratch);
  return verdict;
}

IdpsVerdict IdpsEngine::inspect_stream_reference(const net::Packet& packet,
                                                 ByteView chunk,
                                                 StreamMatchState& state,
                                                 InspectScratch& scratch,
                                                 std::span<std::uint8_t> mask) {
  ++packets_inspected_;
  reset_hits(scratch);
  load_stream_hits(state, scratch);

  bool run_ci = ci_automaton_.pattern_count() > 0;
  // Lower before any masking mutates the payload, so the nocase scan
  // sees the same bytes the case-sensitive scan saw (the per-packet
  // path scans both automatons over one unmodified input).
  if (run_ci) to_lower_into(chunk, scratch.lowered);

  // Single-pointer capture keeps the callback inside std::function's
  // small-object buffer — no allocation per scan.
  struct RecordCtx {
    IdpsEngine* self;
    InspectScratch* scratch;
    StreamMatchState* state;
    std::uint8_t* mask_data;
    std::size_t mask_size;
    bool new_hit = false;
  } ctx{this, &scratch, &state, mask.data(), mask.size()};
  auto record = [&ctx](const AcMatch& m) {
    record_hit(*ctx.scratch, m.pattern_id);
    ctx.new_hit = true;
    std::size_t plen = ctx.self->content_length(m.pattern_id);
    // An end offset inside the pattern means the match began in an
    // earlier segment — the split delivery per-packet scanning misses.
    if (m.end_offset < plen) ++ctx.state->cross_segment_matches;
    if (ctx.mask_size != 0) {
      std::size_t end = m.end_offset;
      std::size_t start = end > plen ? end - plen : 0;
      for (std::size_t j = start; j < end; ++j) ctx.mask_data[j] = 'X';
      ctx.state->bytes_masked += end - start;
    }
    return true;
  };
  cs_automaton_.match_resume(chunk, &state.cs_state, record);
  if (run_ci) ci_automaton_.match_resume(scratch.lowered, &state.ci_state, record);
  state.bytes_scanned += chunk.size();

  IdpsVerdict verdict = evaluate_hits(packet, scratch, ctx.new_hit, &state);
  persist_stream_hits(state, scratch);
  return verdict;
}

void IdpsEngine::inspect_stream_batch(
    std::span<const net::Packet* const> packets, std::span<const ByteView> chunks,
    std::span<StreamMatchState* const> states, BatchScratch& scratch,
    IdpsVerdict* verdicts, std::span<const std::span<std::uint8_t>> masks) {
  if (!prefilter_enabled_) {
    prefilter_stats_.fallback_scans += packets.size();
    inspect_stream_batch_reference(packets, chunks, states, scratch, verdicts,
                                   masks);
    return;
  }
  // Prefilter mode runs the burst sequentially in arrival order: each
  // chunk's combined buffer needs the tail its same-flow predecessor
  // leaves behind, and clean chunks (the common case) do no automaton
  // work, so there is no transition-load latency left for the
  // interleaved walk to hide. Verdicts trivially equal per-packet
  // inspect_stream in burst order.
  for (std::size_t i = 0; i < packets.size(); ++i)
    verdicts[i] = inspect_stream(*packets[i], chunks[i], *states[i],
                                 scratch.rules,
                                 masks.empty() ? std::span<std::uint8_t>{}
                                               : masks[i]);
}

void IdpsEngine::inspect_stream_batch_reference(
    std::span<const net::Packet* const> packets, std::span<const ByteView> chunks,
    std::span<StreamMatchState* const> states, BatchScratch& scratch,
    IdpsVerdict* verdicts, std::span<const std::span<std::uint8_t>> masks) {
  std::size_t n = packets.size();
  packets_inspected_ += n;
  if (scratch.matches.size() < n) scratch.matches.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch.matches[i].clear();

  bool run_ci = ci_automaton_.pattern_count() > 0;
  if (run_ci) {
    // All lowered copies up front, before masking mutates any payload.
    if (scratch.lowered.size() < n) scratch.lowered.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      to_lower_into(chunks[i], scratch.lowered[i]);
  }

  // Two chunks of the same flow must not walk in the same interleave
  // round — the second continues from the state the first produces. So
  // packets are grouped into rounds: round k holds every flow's
  // (k+1)-th chunk of the burst; within a round all streams are
  // distinct and the 16-lane resumable walk applies. Bursts are small
  // (<= 64), so the quadratic grouping scan is noise.
  if (scratch.rounds.size() < n) scratch.rounds.resize(n);
  std::uint32_t max_round = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t r = 0;
    for (std::size_t j = 0; j < i; ++j)
      if (states[j] == states[i]) ++r;
    scratch.rounds[i] = r;
    max_round = std::max(max_round, r);
  }

  struct RecordCtx {
    IdpsEngine* self;
    BatchScratch* scratch;
    StreamMatchState* const* states;
    const std::span<std::uint8_t>* masks;
  } ctx{this, &scratch, states.data(), masks.empty() ? nullptr : masks.data()};
  auto record = [&ctx](std::size_t stream, const AcMatch& m) {
    std::size_t i = ctx.scratch->order[stream];
    ctx.scratch->matches[i].push_back(m);
    std::size_t plen = ctx.self->content_length(m.pattern_id);
    StreamMatchState& st = *ctx.states[i];
    if (m.end_offset < plen) ++st.cross_segment_matches;
    if (ctx.masks != nullptr && !ctx.masks[i].empty()) {
      std::span<std::uint8_t> mask = ctx.masks[i];
      std::size_t end = m.end_offset;
      std::size_t start = end > plen ? end - plen : 0;
      for (std::size_t j = start; j < end; ++j) mask[j] = 'X';
      st.bytes_masked += end - start;
    }
    return true;
  };

  for (std::uint32_t round = 0; round <= max_round; ++round) {
    scratch.order.clear();
    for (std::size_t i = 0; i < n; ++i)
      if (scratch.rounds[i] == round)
        scratch.order.push_back(static_cast<std::uint32_t>(i));
    std::size_t m = scratch.order.size();
    if (scratch.views.size() < m) scratch.views.resize(m);
    if (scratch.ac_states.size() < m) scratch.ac_states.resize(m);

    for (std::size_t k = 0; k < m; ++k) {
      scratch.views[k] = chunks[scratch.order[k]];
      scratch.ac_states[k] = states[scratch.order[k]]->cs_state;
    }
    cs_automaton_.match_multi_resume({scratch.views.data(), m},
                                     scratch.ac_states.data(), record);
    for (std::size_t k = 0; k < m; ++k)
      states[scratch.order[k]]->cs_state = scratch.ac_states[k];

    if (run_ci) {
      for (std::size_t k = 0; k < m; ++k) {
        scratch.views[k] = scratch.lowered[scratch.order[k]];
        scratch.ac_states[k] = states[scratch.order[k]]->ci_state;
      }
      ci_automaton_.match_multi_resume({scratch.views.data(), m},
                                       scratch.ac_states.data(), record);
      for (std::size_t k = 0; k < m; ++k)
        states[scratch.order[k]]->ci_state = scratch.ac_states[k];
    }
  }

  // Evaluation replays per packet in burst order, so persisted hits
  // from an earlier same-flow packet are visible to the later one —
  // verdicts equal sequential inspect_stream calls.
  for (std::size_t i = 0; i < n; ++i) {
    StreamMatchState& st = *states[i];
    st.bytes_scanned += chunks[i].size();
    reset_hits(scratch.rules);
    load_stream_hits(st, scratch.rules);
    for (const AcMatch& m : scratch.matches[i])
      record_hit(scratch.rules, m.pattern_id);
    verdicts[i] = evaluate_hits(*packets[i], scratch.rules,
                                !scratch.matches[i].empty(), &st);
    persist_stream_hits(st, scratch.rules);
  }
}

}  // namespace endbox::idps

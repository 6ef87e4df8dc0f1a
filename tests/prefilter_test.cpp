// Adversarial property suite for the two-tier scanning engine: the
// Teddy-style literal prefilter's kernels (scalar SWAR vs SSSE3 vs
// AVX2) must agree bit-for-bit, candidate windows must cover every
// planted occurrence (soundness — false negatives are correctness
// bugs, false positives only cost confirm cycles), and the prefiltered
// inspect / inspect_batch / inspect_stream{,_batch} paths must be
// verdict-identical (match set, offsets, MASK bytes, once-per-flow
// firing) to the full-walk inspect*_reference family over randomized
// payloads, rule subsets and segmentations — including literals
// straddling chunk boundaries, nocase literals in raw (unlowered)
// text, the ENDBOX_FORCE_SCALAR dispatch override both ways, and the
// 1-byte-content fallback that disables the prefilter entirely.
#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "idps/aho_corasick.hpp"
#include "idps/engine.hpp"
#include "idps/literal_prefilter.hpp"
#include "idps/snort_rules.hpp"

namespace endbox::idps {
namespace {

using net::Ipv4;
using net::Packet;

std::vector<ByteView> views_of(const std::vector<Bytes>& patterns) {
  return {patterns.begin(), patterns.end()};
}

/// Every kernel the machine can actually run (scalar always).
std::vector<LiteralPrefilter::Kernel> available_kernels() {
  std::vector<LiteralPrefilter::Kernel> kernels{
      common::SimdLevel::Scalar};
  common::SimdLevel hw = common::hardware_simd_level();
  if (hw >= common::SimdLevel::Ssse3)
    kernels.push_back(common::SimdLevel::Ssse3);
  if (hw >= common::SimdLevel::Avx2)
    kernels.push_back(common::SimdLevel::Avx2);
  return kernels;
}

/// RAII override of ENDBOX_FORCE_SCALAR for dispatch tests. Restores
/// the prior value so the CI leg that runs the whole binary under
/// ENDBOX_FORCE_SCALAR=1 stays forced for later tests.
struct ScopedForceScalar {
  ScopedForceScalar() {
    const char* prev = ::getenv("ENDBOX_FORCE_SCALAR");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv("ENDBOX_FORCE_SCALAR", "1", 1);
  }
  ~ScopedForceScalar() {
    if (had_prev_)
      ::setenv("ENDBOX_FORCE_SCALAR", prev_.c_str(), 1);
    else
      ::unsetenv("ENDBOX_FORCE_SCALAR");
  }
  bool had_prev_ = false;
  std::string prev_;
};

Packet probe_packet() {
  return Packet::udp(Ipv4(10, 8, 0, 2), Ipv4(10, 0, 0, 1), 4242, 80, {});
}

/// Plants the full content list of a few random rules into `payload`
/// at random positions (possibly adjacent/overlapping planted runs).
void plant_rules(const std::vector<SnortRule>& rules, Bytes& payload,
                 Rng& rng) {
  for (std::size_t p = 0; p < 1 + rng.uniform(0, 2); ++p) {
    const SnortRule& rule = rules[rng.uniform(0, rules.size() - 1)];
    std::size_t at =
        payload.empty() ? 0 : rng.uniform(0, payload.size() - 1);
    for (const auto& content : rule.contents) {
      payload.insert(payload.begin() + static_cast<std::ptrdiff_t>(at),
                     content.bytes.begin(), content.bytes.end());
      at += content.bytes.size() + rng.uniform(0, 16);
      at = std::min(at, payload.size());
    }
  }
}

void expect_verdict_eq(const IdpsVerdict& got, const IdpsVerdict& want,
                       const std::string& where) {
  EXPECT_EQ(got.matched, want.matched) << where;
  EXPECT_EQ(got.drop, want.drop) << where;
  EXPECT_EQ(got.sid, want.sid) << where;
}

// ---- LiteralPrefilter ---------------------------------------------------

TEST(LiteralPrefilter, KernelsAgreeBitForBit) {
  // The SWAR fallback, SSSE3 and AVX2 kernels implement one candidate
  // predicate; over random texts seeded with fragments (including ones
  // straddling the 16B/32B block seams the SIMD kernels carry state
  // across) they must produce identical runs and candidate counts.
  Rng rng(42);
  std::vector<Bytes> patterns = {
      to_bytes("malware"), to_bytes("/etc/passwd"), to_bytes("evil"),
      to_bytes("xx"),      to_bytes("powershell -enc")};
  LiteralPrefilter filter;
  filter.build(views_of(patterns), false);
  ASSERT_TRUE(filter.usable());
  ASSERT_EQ(filter.fragment_width(), 2u);

  auto kernels = available_kernels();
  for (int round = 0; round < 200; ++round) {
    Bytes text = rng.bytes(rng.uniform(0, 200));
    if (round % 2 == 0 && !text.empty()) {
      const Bytes& p = patterns[rng.uniform(0, patterns.size() - 1)];
      std::size_t at = rng.uniform(0, text.size() - 1);
      // Truncate at the text end so partial fragments at the boundary
      // are exercised too.
      for (std::size_t j = 0; j < p.size() && at + j < text.size(); ++j)
        text[at + j] = p[j];
    }
    std::vector<CandidateRun> expected;
    std::size_t expected_count = 0;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      filter.force_kernel(kernels[k]);
      std::vector<CandidateRun> runs;
      std::size_t count = filter.find_runs(text, runs);
      if (k == 0) {
        expected = runs;
        expected_count = count;
      } else {
        EXPECT_EQ(runs, expected)
            << "round " << round << " kernel "
            << common::simd_level_name(kernels[k]);
        EXPECT_EQ(count, expected_count) << "round " << round;
      }
    }
  }
}

TEST(LiteralPrefilter, RunsCoverEveryPlantedOccurrence) {
  // Soundness: every occurrence of every pattern must lie wholly
  // inside one candidate run — including occurrences at offset 0, at
  // the very end, and back-to-back overlapping plants.
  Rng rng(7);
  std::vector<Bytes> patterns = {to_bytes("needle"), to_bytes("pin"),
                                 to_bytes("ab")};
  LiteralPrefilter filter;
  filter.build(views_of(patterns), false);
  ASSERT_TRUE(filter.usable());

  auto kernels = available_kernels();
  for (int round = 0; round < 200; ++round) {
    Bytes text = rng.bytes(20 + rng.uniform(0, 180));
    std::vector<std::pair<std::size_t, const Bytes*>> spans;
    for (int plant = 0; plant < 3; ++plant) {
      const Bytes& p = patterns[rng.uniform(0, patterns.size() - 1)];
      std::size_t at = round % 3 == 0 ? (plant == 0 ? 0 : text.size() - p.size())
                                      : rng.uniform(0, text.size() - p.size());
      std::copy(p.begin(), p.end(),
                text.begin() + static_cast<std::ptrdiff_t>(at));
      spans.emplace_back(at, &p);
    }
    for (auto kernel : kernels) {
      filter.force_kernel(kernel);
      std::vector<CandidateRun> runs;
      filter.find_runs(text, runs);
      for (auto [at, p] : spans) {
        // A later plant may have clobbered this one — only intact
        // occurrences must be covered.
        if (!std::equal(p->begin(), p->end(),
                        text.begin() + static_cast<std::ptrdiff_t>(at)))
          continue;
        std::size_t end = at + p->size();
        bool covered = false;
        for (const CandidateRun& run : runs)
          covered |= run.begin <= at && end <= run.end;
        EXPECT_TRUE(covered)
            << "round " << round << " span [" << at << "," << end
            << ") kernel " << common::simd_level_name(kernel);
      }
    }
  }
}

TEST(LiteralPrefilter, OneBytePatternIsUnusable) {
  std::vector<Bytes> patterns = {to_bytes("longpattern"), to_bytes("X")};
  LiteralPrefilter filter;
  filter.build(views_of(patterns), false);
  EXPECT_FALSE(filter.usable());
}

TEST(LiteralPrefilter, EmptyPatternSetIsUsableAndClean) {
  LiteralPrefilter filter;
  filter.build({}, false);
  EXPECT_TRUE(filter.usable());
  std::vector<CandidateRun> runs;
  Bytes text = to_bytes("anything at all");
  EXPECT_EQ(filter.find_runs(text, runs), 0u);
  EXPECT_TRUE(runs.empty());
}

TEST(LiteralPrefilter, CaseInsensitiveMasksAdmitRawUppercase) {
  // The nocase filter scans RAW text: masks built from the lower-cased
  // pattern must fire on any case mixture of the literal.
  std::vector<Bytes> patterns = {to_bytes("malware")};
  LiteralPrefilter filter;
  filter.build(views_of(patterns), true);
  ASSERT_TRUE(filter.usable());
  for (auto kernel : available_kernels()) {
    filter.force_kernel(kernel);
    for (const char* text : {"xx MALWARE yy", "xx MaLwArE yy", "malware"}) {
      Bytes raw = to_bytes(text);
      std::size_t at = std::string(text).find_first_of("mM");
      std::vector<CandidateRun> runs;
      filter.find_runs(raw, runs);
      bool covered = false;
      for (const CandidateRun& run : runs)
        covered |= run.begin <= at && at + 7 <= run.end;
      EXPECT_TRUE(covered) << text << " kernel "
                           << common::simd_level_name(kernel);
    }
  }
}

TEST(LiteralPrefilter, TextShorterThanFragmentHasNoCandidates) {
  std::vector<Bytes> patterns = {to_bytes("abcd")};
  LiteralPrefilter filter;
  filter.build(views_of(patterns), false);
  ASSERT_EQ(filter.fragment_width(), 4u);
  std::vector<CandidateRun> runs;
  Bytes text = to_bytes("abc");
  EXPECT_EQ(filter.find_runs(text, runs), 0u);
  EXPECT_TRUE(runs.empty());
}

// ---- Engine equivalence -------------------------------------------------

TEST(PrefilterEngine, InspectEqualsReferenceOnCommunityFuzz) {
  Rng rng(11);
  auto rules = generate_community_ruleset(150, rng);
  IdpsEngine engine(rules);
  IdpsEngine reference(rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  IdpsEngine::InspectScratch scratch, ref_scratch;
  Packet probe = probe_packet();
  for (int round = 0; round < 150; ++round) {
    Bytes payload = rng.bytes(rng.uniform(0, 1600));
    if (round % 2 == 0) plant_rules(rules, payload, rng);
    auto got = engine.inspect(probe, payload, scratch);
    auto want = reference.inspect_reference(probe, payload, ref_scratch);
    expect_verdict_eq(got, want, "round " + std::to_string(round));
  }
  EXPECT_EQ(engine.alerts(), reference.alerts());
  EXPECT_EQ(engine.drops(), reference.drops());
  // Clean rounds never entered the automaton, so the prefilter did
  // real screening work.
  EXPECT_GT(engine.prefilter_stats().prefiltered_bytes, 0u);
  EXPECT_EQ(engine.prefilter_stats().fallback_scans, 0u);
}

TEST(PrefilterEngine, OneByteContentForcesFullWalkFallback) {
  // Regression for the sub-fragment-width literal: a 1-byte content
  // has no fragment, so a bucket miss would silently skip it — the
  // whole engine must fall back to the full walk and still match.
  auto rules = parse_snort_ruleset(
      "alert ip any any -> any any (content:\"Z\"; sid:1;)\n"
      "alert ip any any -> any any (content:\"longenough\"; sid:2;)\n");
  ASSERT_TRUE(rules.ok());
  IdpsEngine engine(*rules);
  EXPECT_FALSE(engine.prefilter_enabled());
  IdpsEngine::InspectScratch scratch;
  Packet probe = probe_packet();

  Bytes single = to_bytes("xx Z yy");
  auto verdict = engine.inspect(probe, single, scratch);
  EXPECT_TRUE(verdict.matched);
  EXPECT_EQ(verdict.sid, 1u);
  EXPECT_GT(engine.prefilter_stats().fallback_scans, 0u);
  EXPECT_EQ(engine.prefilter_stats().prefiltered_bytes, 0u);

  Bytes both = to_bytes("a longenough payload");
  verdict = engine.inspect(probe, both, scratch);
  EXPECT_TRUE(verdict.matched);

  // Stream path falls back too (and must still catch straddles via
  // the resumable walk).
  StreamMatchState state;
  auto v1 = engine.inspect_stream(probe, to_bytes("tail is longe"), state,
                                  scratch);
  EXPECT_FALSE(v1.matched);
  auto v2 = engine.inspect_stream(probe, to_bytes("nough yes"), state, scratch);
  EXPECT_TRUE(v2.matched);
  EXPECT_EQ(v2.sid, 2u);
  EXPECT_EQ(state.cross_segment_matches, 1u);
}

TEST(PrefilterEngine, BatchEqualsPerPacketAndReference) {
  Rng rng(23);
  auto rules = generate_community_ruleset(120, rng);
  IdpsEngine batch_engine(rules);
  IdpsEngine single_engine(rules);
  IdpsEngine ref_engine(rules);
  IdpsEngine::BatchScratch batch_scratch, ref_scratch;
  IdpsEngine::InspectScratch single_scratch;
  Packet probe = probe_packet();

  for (int round = 0; round < 20; ++round) {
    std::size_t n = 1 + rng.uniform(0, 31);
    std::vector<Bytes> storage(n);
    std::vector<ByteView> payloads(n);
    std::vector<const Packet*> packets(n, &probe);
    for (std::size_t i = 0; i < n; ++i) {
      storage[i] = rng.bytes(rng.uniform(0, 600));
      if (i % 3 == 0) plant_rules(rules, storage[i], rng);
      payloads[i] = storage[i];
    }
    std::vector<IdpsVerdict> got(n), ref(n);
    batch_engine.inspect_batch({packets.data(), n}, {payloads.data(), n},
                               batch_scratch, got.data());
    ref_engine.inspect_batch_reference({packets.data(), n},
                                       {payloads.data(), n}, ref_scratch,
                                       ref.data());
    for (std::size_t i = 0; i < n; ++i) {
      auto want = single_engine.inspect(probe, payloads[i], single_scratch);
      expect_verdict_eq(got[i], want, "round " + std::to_string(round) +
                                          " packet " + std::to_string(i));
      expect_verdict_eq(got[i], ref[i], "vs reference, round " +
                                            std::to_string(round) + " packet " +
                                            std::to_string(i));
    }
  }
  EXPECT_EQ(batch_engine.alerts(), single_engine.alerts());
  EXPECT_EQ(batch_engine.drops(), ref_engine.drops());
}

TEST(PrefilterEngine, StreamEqualsReferenceOverRandomSegmentations) {
  // The tail-carry stream path vs the resumable-state reference path,
  // over random payloads with planted contents and random chunk
  // boundaries — cuts deliberately land mid-pattern so the carried
  // tail is what catches the straddle. Verdicts, cross-segment
  // counts, MASK bytes and once-per-flow firing must all agree.
  Rng rng(31);
  auto rules = generate_community_ruleset(100, rng);
  IdpsEngine engine(rules);
  IdpsEngine reference(rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  IdpsEngine::InspectScratch scratch, ref_scratch;
  Packet probe = probe_packet();

  for (int round = 0; round < 60; ++round) {
    Bytes stream = rng.bytes(100 + rng.uniform(0, 700));
    plant_rules(rules, stream, rng);
    Bytes masked = stream;      // prefiltered path masks this copy
    Bytes ref_masked = stream;  // reference path masks this one

    StreamMatchState state, ref_state;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      std::size_t len = std::min<std::size_t>(stream.size() - pos,
                                              1 + rng.uniform(0, 48));
      // As in production, each mask aliases the scanned chunk — the
      // carried tail must hold the unmasked original bytes or a
      // straddling literal masked mid-way would be lost.
      auto got = engine.inspect_stream(
          probe, ByteView(masked.data() + pos, len), state, scratch,
          {masked.data() + pos, len});
      auto want = reference.inspect_stream_reference(
          probe, ByteView(ref_masked.data() + pos, len), ref_state, ref_scratch,
          {ref_masked.data() + pos, len});
      expect_verdict_eq(got, want, "round " + std::to_string(round) +
                                       " pos " + std::to_string(pos));
      pos += len;
    }
    EXPECT_EQ(state.cross_segment_matches, ref_state.cross_segment_matches)
        << "round " << round;
    EXPECT_EQ(state.bytes_masked, ref_state.bytes_masked) << "round " << round;
    EXPECT_EQ(state.bytes_scanned, ref_state.bytes_scanned);
    EXPECT_EQ(masked, ref_masked) << "round " << round;
    // Once-per-flow firing: the completed rule sets must coincide.
    auto completed = state.completed;
    auto ref_completed = ref_state.completed;
    std::sort(completed.begin(), completed.end());
    std::sort(ref_completed.begin(), ref_completed.end());
    EXPECT_EQ(completed, ref_completed) << "round " << round;
  }
  EXPECT_EQ(engine.alerts(), reference.alerts());
  EXPECT_EQ(engine.drops(), reference.drops());
}

TEST(PrefilterEngine, StreamBatchMatchesSequentialAtManyFlowCounts) {
  // inspect_stream_batch must equal per-chunk inspect_stream_reference
  // in burst order for 1/2/4/8 interleaved flows, including several
  // chunks of one flow inside one burst.
  Rng rng(47);
  auto rules = generate_community_ruleset(80, rng);
  Packet probe = probe_packet();
  for (std::size_t flows : {1u, 2u, 4u, 8u}) {
    IdpsEngine batched(rules);
    IdpsEngine sequential(rules);
    IdpsEngine::BatchScratch batch_scratch;
    IdpsEngine::InspectScratch seq_scratch;
    std::vector<StreamMatchState> batch_states(flows), seq_states(flows);

    // Each flow is one payload with planted contents, cut into chunks;
    // bursts interleave the flows' next chunks round-robin-ish.
    std::vector<Bytes> streams(flows);
    std::vector<std::vector<ByteView>> flow_chunks(flows);
    for (std::size_t f = 0; f < flows; ++f) {
      streams[f] = rng.bytes(150 + rng.uniform(0, 300));
      plant_rules(rules, streams[f], rng);
      std::size_t pos = 0;
      while (pos < streams[f].size()) {
        std::size_t len = std::min<std::size_t>(streams[f].size() - pos,
                                                1 + rng.uniform(0, 40));
        flow_chunks[f].emplace_back(streams[f].data() + pos, len);
        pos += len;
      }
    }
    std::vector<std::size_t> next(flows, 0);
    std::vector<std::pair<std::size_t, ByteView>> order;
    bool remaining = true;
    while (remaining) {
      remaining = false;
      for (std::size_t f = 0; f < flows; ++f) {
        // Sometimes two chunks of one flow in a row -> same burst.
        std::size_t take = 1 + rng.uniform(0, 1);
        for (std::size_t t = 0; t < take && next[f] < flow_chunks[f].size();
             ++t)
          order.emplace_back(f, flow_chunks[f][next[f]++]);
        remaining |= next[f] < flow_chunks[f].size();
      }
    }

    std::vector<IdpsVerdict> expected;
    for (const auto& [f, chunk] : order)
      expected.push_back(sequential.inspect_stream_reference(
          probe, chunk, seq_states[f], seq_scratch));

    // Deliver in bursts of up to 16.
    std::size_t done = 0;
    std::vector<IdpsVerdict> got(order.size());
    while (done < order.size()) {
      std::size_t n = std::min<std::size_t>(16, order.size() - done);
      std::vector<const Packet*> packets(n, &probe);
      std::vector<ByteView> chunks(n);
      std::vector<StreamMatchState*> states(n);
      for (std::size_t i = 0; i < n; ++i) {
        chunks[i] = order[done + i].second;
        states[i] = &batch_states[order[done + i].first];
      }
      batched.inspect_stream_batch({packets.data(), n}, {chunks.data(), n},
                                   {states.data(), n}, batch_scratch,
                                   got.data() + done);
      done += n;
    }
    for (std::size_t i = 0; i < order.size(); ++i)
      expect_verdict_eq(got[i], expected[i],
                        std::to_string(flows) + " flows, chunk " +
                            std::to_string(i));
    EXPECT_EQ(batched.alerts(), sequential.alerts()) << flows << " flows";
    EXPECT_EQ(batched.drops(), sequential.drops()) << flows << " flows";
    for (std::size_t f = 0; f < flows; ++f) {
      EXPECT_EQ(batch_states[f].cross_segment_matches,
                seq_states[f].cross_segment_matches)
          << flows << " flows, flow " << f;
      EXPECT_EQ(batch_states[f].bytes_scanned, seq_states[f].bytes_scanned);
    }
  }
}

TEST(PrefilterEngine, ForcedScalarDispatchMatchesSimd) {
  // The ENDBOX_FORCE_SCALAR override must pin the portable kernel at
  // engine construction — and the pinned engine must produce the same
  // verdicts as the hardware-dispatched one.
  Rng rng(59);
  auto rules = generate_community_ruleset(60, rng);
  IdpsEngine simd_engine(rules);
  EXPECT_EQ(simd_engine.cs_automaton().prefilter().kernel(),
            common::current_simd_level());

  ScopedForceScalar force;
  IdpsEngine scalar_engine(rules);
  EXPECT_EQ(scalar_engine.cs_automaton().prefilter().kernel(),
            common::SimdLevel::Scalar);
  EXPECT_EQ(scalar_engine.ci_automaton().prefilter().kernel(),
            common::SimdLevel::Scalar);

  IdpsEngine::InspectScratch a, b;
  Packet probe = probe_packet();
  for (int round = 0; round < 80; ++round) {
    Bytes payload = rng.bytes(rng.uniform(0, 1000));
    if (round % 2 == 0) plant_rules(rules, payload, rng);
    expect_verdict_eq(scalar_engine.inspect(probe, payload, a),
                      simd_engine.inspect(probe, payload, b),
                      "round " + std::to_string(round));
  }
  EXPECT_EQ(scalar_engine.alerts(), simd_engine.alerts());
}

TEST(PrefilterEngine, NocaseLiteralMatchesUppercaseRawPayload) {
  // Nocase contents are lowered into the masks; the raw (unlowered)
  // uppercase delivery must still be caught by the prefiltered path.
  auto rules = parse_snort_ruleset(
      "alert ip any any -> any any (content:\"malware\"; nocase; sid:9;)\n");
  ASSERT_TRUE(rules.ok());
  IdpsEngine engine(*rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  IdpsEngine::InspectScratch scratch;
  Packet probe = probe_packet();
  for (const char* text : {"xx MALWARE yy", "xx MaLwArE yy", "malware!"}) {
    Bytes payload = to_bytes(text);
    auto verdict = engine.inspect(probe, payload, scratch);
    EXPECT_TRUE(verdict.matched) << text;
    EXPECT_EQ(verdict.sid, 9u) << text;
  }
  Bytes clean = to_bytes("nothing interesting here");
  EXPECT_FALSE(engine.inspect(probe, clean, scratch).matched);
}

TEST(PrefilterEngine, StreamStraddleAcrossTinyChunksIsCaught) {
  // 2-byte chunk delivery of a pattern: every chunk boundary lands
  // inside the literal, so only the carried tail can complete it.
  auto rules = parse_snort_ruleset(
      "drop ip any any -> any any (content:\"malware\"; sid:5;)\n");
  ASSERT_TRUE(rules.ok());
  IdpsEngine engine(*rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  IdpsEngine::InspectScratch scratch;
  Packet probe = probe_packet();
  StreamMatchState state;
  std::string stream = "xxmalwareyy";
  bool matched = false;
  for (std::size_t pos = 0; pos < stream.size(); pos += 2) {
    std::string chunk = stream.substr(pos, 2);
    auto verdict = engine.inspect_stream(probe, to_bytes(chunk), state, scratch);
    matched |= verdict.matched;
  }
  EXPECT_TRUE(matched);
  EXPECT_EQ(state.cross_segment_matches, 1u);
  EXPECT_EQ(engine.drops(), 1u);
}

// ---- Text traffic ---------------------------------------------------------
//
// The random-byte suites above rarely exercise what real traffic does to
// the filter: text is full of the letters, digits and HTTP punctuation
// that community contents are made of, so nibble candidates are frequent
// and only the exact fragment confirm keeps tier 2 idle. These suites
// scan HTTP-shaped text.

/// Benign HTTP request/response text: a request or status line, a few
/// headers, then English prose with the odd number.
Bytes http_text(Rng& rng, std::size_t length) {
  static const char* kWords[] = {
      "the",    "of",       "and",      "to",     "in",      "is",
      "that",   "for",      "it",       "as",     "was",     "with",
      "be",     "by",       "on",       "not",    "this",    "are",
      "which",  "from",     "or",       "have",   "an",      "they",
      "more",   "time",     "people",   "year",   "way",     "day",
      "report", "network",  "service",  "office", "quality", "between",
      "public", "document", "security", "update", "account", "server"};
  static const char* kHeads[] = {
      "GET /index.html HTTP/1.1\r\nHost: www.example.org\r\n"
      "User-Agent: Mozilla/5.0 (X11; Linux x86_64)\r\nAccept: text/html\r\n"
      "Accept-Language: en-US,en;q=0.5\r\nConnection: keep-alive\r\n\r\n",
      "POST /api/v1/orders?page=2 HTTP/1.1\r\nHost: shop.example.com\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n"
      "Content-Length: 512\r\n\r\n",
      "HTTP/1.1 200 OK\r\nDate: Mon, 12 Oct 2026 10:20:30 GMT\r\n"
      "Content-Type: text/html; charset=utf-8\r\nCache-Control: max-age=600"
      "\r\n\r\n<html><head><title>Report</title></head><body><p>"};
  std::string text = kHeads[rng.uniform(0, std::size(kHeads) - 1)];
  while (text.size() < length) {
    text += kWords[rng.uniform(0, std::size(kWords) - 1)];
    if (rng.uniform(0, 9) == 0) text += std::to_string(rng.uniform(0, 2026));
    text += rng.uniform(0, 11) == 0 ? ". " : " ";
  }
  text.resize(length);
  return to_bytes(text);
}

/// `content` with each ASCII letter's case flipped at random (how a
/// nocase content may arrive on the wire).
Bytes mixed_case(const Bytes& content, Rng& rng) {
  Bytes out = content;
  for (auto& b : out)
    if (((b | 0x20) >= 'a' && (b | 0x20) <= 'z') && rng.uniform(0, 1) == 1)
      b ^= 0x20;
  return out;
}

/// Checks every prefiltered path against its full-walk oracle on one
/// payload: inspect, a one-packet inspect_batch, and a single-chunk
/// inspect_stream on a fresh flow. Returns the inspect verdict.
IdpsVerdict expect_all_paths_match_oracle(IdpsEngine& engine,
                                          IdpsEngine& oracle, ByteView payload,
                                          const std::string& where) {
  IdpsEngine::InspectScratch scratch, ref_scratch;
  IdpsEngine::BatchScratch batch, ref_batch;
  Packet probe = probe_packet();
  IdpsVerdict verdict = engine.inspect(probe, payload, scratch);
  expect_verdict_eq(verdict,
                    oracle.inspect_reference(probe, payload, ref_scratch),
                    where + " inspect");
  const Packet* packets[] = {&probe};
  IdpsVerdict got, want;
  engine.inspect_batch(packets, {&payload, 1}, batch, &got);
  oracle.inspect_batch_reference(packets, {&payload, 1}, ref_batch, &want);
  expect_verdict_eq(got, want, where + " batch");
  StreamMatchState state, ref_state;
  expect_verdict_eq(
      engine.inspect_stream(probe, payload, state, scratch),
      oracle.inspect_stream_reference(probe, payload, ref_state, ref_scratch),
      where + " stream");
  return verdict;
}

TEST(LiteralPrefilter, AsciiFoldLeavesHighBytesAlone) {
  for (unsigned b = 0; b < 256; ++b) {
    std::uint8_t want = b >= 'A' && b <= 'Z' ? static_cast<std::uint8_t>(b + 32)
                                             : static_cast<std::uint8_t>(b);
    EXPECT_EQ(ascii_lower(static_cast<std::uint8_t>(b)), want) << b;
  }
}

TEST(PrefilterEngine, HighBytesFoldToThemselvesOnEveryPath) {
  // A nocase content with bytes >= 0x80 matches only those exact bytes
  // (only ASCII letters fold), on the prefiltered paths and the oracle
  // alike. An 8-bit locale, where std::tolower maps 0xC0 to 0xE0, is
  // switched on when the system has one, so a fold that consults the
  // locale would make the two disagree.
  struct ScopedLatin1Ctype {
    ScopedLatin1Ctype() : previous(std::setlocale(LC_CTYPE, nullptr)) {
      for (const char* name : {"en_US.ISO-8859-1", "de_DE.ISO-8859-1",
                               "fr_FR.ISO-8859-1", "en_US.iso88591"})
        if (std::setlocale(LC_CTYPE, name) != nullptr) break;
    }
    ~ScopedLatin1Ctype() { std::setlocale(LC_CTYPE, previous.c_str()); }
    std::string previous;
  } latin1;

  auto rules = parse_snort_ruleset(
      "alert ip any any -> any any (content:\"|C0 C9|evil\"; nocase; sid:1;)\n"
      "alert ip any any -> any any (content:\"|E0 E9|bad\"; nocase; sid:2;)\n");
  ASSERT_TRUE(rules.ok());
  IdpsEngine engine(*rules);
  IdpsEngine oracle(*rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  for (auto kernel : available_kernels()) {
    engine.force_prefilter_kernel(kernel);
    std::string k = common::simd_level_name(kernel);
    struct Case {
      const char* payload;
      bool matched;
    } cases[] = {{"xx \xC0\xC9" "EvIl yy", true},
                 {"xx \xE0\xE9" "evil yy", false},
                 {"xx \xE0\xE9" "BAD yy", true},
                 {"xx \xC0\xC9" "bad yy", false}};
    for (const Case& c : cases) {
      Bytes payload = to_bytes(c.payload);
      EXPECT_EQ(
          expect_all_paths_match_oracle(engine, oracle, payload, k).matched,
          c.matched)
          << k << " " << c.payload;
    }
  }
}

TEST(PrefilterEngine, HttpTextPlantsAcrossBlockSeamsMatchOracle) {
  // Community contents planted into HTTP text at every offset across
  // the 16- and 32-byte block seams and through the SIMD -> scalar
  // tail, nocase contents in random mixed case, on every kernel.
  Rng rng(101);
  auto rules = generate_community_ruleset(377, rng);
  IdpsEngine engine(rules);
  IdpsEngine oracle(rules);
  ASSERT_TRUE(engine.prefilter_enabled());
  // One case-sensitive and one nocase single-content rule whose header
  // admits the UDP probe, so each plant must fire.
  const SnortRule* cs_rule = nullptr;
  const SnortRule* ci_rule = nullptr;
  for (const SnortRule& r : rules) {
    if (r.contents.size() != 1 || r.proto == net::IpProto::Tcp ||
        !r.dst_port.any)
      continue;
    if (r.contents[0].nocase && ci_rule == nullptr) ci_rule = &r;
    if (!r.contents[0].nocase && cs_rule == nullptr) cs_rule = &r;
  }
  ASSERT_NE(cs_rule, nullptr);
  ASSERT_NE(ci_rule, nullptr);

  for (auto kernel : available_kernels()) {
    engine.force_prefilter_kernel(kernel);
    std::string k = common::simd_level_name(kernel);
    for (std::size_t length : {std::size_t{70}, std::size_t{131}}) {
      for (const SnortRule* rule : {cs_rule, ci_rule}) {
        const ContentPattern& content = rule->contents[0];
        for (std::size_t at = 0; at + content.bytes.size() <= length; ++at) {
          Bytes payload = http_text(rng, length);
          Bytes planted =
              content.nocase ? mixed_case(content.bytes, rng) : content.bytes;
          std::copy(planted.begin(), planted.end(),
                    payload.begin() + static_cast<std::ptrdiff_t>(at));
          std::string where = k + " sid " + std::to_string(rule->sid) +
                              " len " + std::to_string(length) + " at " +
                              std::to_string(at);
          EXPECT_TRUE(
              expect_all_paths_match_oracle(engine, oracle, payload, where)
                  .matched)
              << where;
        }
      }
    }
  }
  EXPECT_EQ(engine.alerts(), oracle.alerts());
  EXPECT_EQ(engine.drops(), oracle.drops());
}

TEST(PrefilterEngine, FragmentWidthsTwoToFourMatchOracle) {
  // Rule sets whose shortest content pins W to 2, 3 and 4, planted
  // into HTTP text and delivered in random chunks, on every kernel. At
  // W = 2 every "_%" pattern's fragment is that rare pair, owned by
  // case-sensitive and nocase patterns alike: one stored fragment per
  // set whose window must cover every owner.
  const char* kLongContents =
      "alert ip any any -> any any (content:\"ab_%cd\"; sid:10;)\n"
      "alert ip any any -> any any (content:\"_%xyz\"; sid:11;)\n"
      "drop ip any any -> any any (content:\"qq_%\"; nocase; sid:12;)\n"
      "alert ip any any -> any any (content:\"Zed_%Report\"; nocase; sid:13;)\n"
      "alert ip any any -> any any (content:\"the report\"; sid:14;)\n";
  const char* kShort[] = {"_%", "_%q", "_%qz"};
  Rng rng(103);
  for (std::size_t w = 2; w <= 4; ++w) {
    std::string text = kLongContents;
    text += "alert ip any any -> any any (content:\"";
    text += kShort[w - 2];
    text += "\"; nocase; sid:15;)\n";
    auto rules = parse_snort_ruleset(text);
    ASSERT_TRUE(rules.ok());
    IdpsEngine engine(*rules);
    IdpsEngine oracle(*rules);
    ASSERT_TRUE(engine.prefilter_enabled());
    ASSERT_EQ(engine.cs_automaton().prefilter().fragment_width(), w);
    ASSERT_EQ(engine.ci_automaton().prefilter().fragment_width(), w);
    if (w == 2) {
      EXPECT_EQ(engine.cs_automaton().prefilter().fragment_count(), 2u);
      EXPECT_EQ(engine.ci_automaton().prefilter().fragment_count(), 1u);
    }
    for (auto kernel : available_kernels()) {
      engine.force_prefilter_kernel(kernel);
      std::string where =
          "W=" + std::to_string(w) + " " + common::simd_level_name(kernel);
      for (int round = 0; round < 40; ++round) {
        Bytes payload = http_text(rng, 40 + rng.uniform(0, 200));
        for (int p = 0; p < 3; ++p) {
          const SnortRule& rule = (*rules)[rng.uniform(0, rules->size() - 1)];
          Bytes planted = mixed_case(rule.contents[0].bytes, rng);
          if (!rule.contents[0].nocase) planted = rule.contents[0].bytes;
          std::size_t at = rng.uniform(0, payload.size() - planted.size());
          std::copy(planted.begin(), planted.end(),
                    payload.begin() + static_cast<std::ptrdiff_t>(at));
        }
        expect_all_paths_match_oracle(engine, oracle, payload,
                                      where + " round " + std::to_string(round));
        // Chunked delivery, prefiltered stream vs the resumable oracle.
        IdpsEngine::InspectScratch scratch, ref_scratch;
        StreamMatchState state, ref_state;
        for (std::size_t pos = 0; pos < payload.size();) {
          std::size_t len = std::min<std::size_t>(payload.size() - pos,
                                                  1 + rng.uniform(0, 20));
          ByteView chunk(payload.data() + pos, len);
          expect_verdict_eq(
              engine.inspect_stream(probe_packet(), chunk, state, scratch),
              oracle.inspect_stream_reference(probe_packet(), chunk, ref_state,
                                              ref_scratch),
              where + " chunk at " + std::to_string(pos));
          pos += len;
        }
        EXPECT_EQ(state.cross_segment_matches, ref_state.cross_segment_matches)
            << where;
      }
    }
    EXPECT_EQ(engine.alerts(), oracle.alerts());
    EXPECT_EQ(engine.drops(), oracle.drops());
  }
}

TEST(PrefilterEngine, BatchOnHttpTextMatchesOracleOnEveryKernel) {
  Rng rng(107);
  auto rules = generate_community_ruleset(200, rng);
  IdpsEngine engine(rules);
  IdpsEngine oracle(rules);
  Packet probe = probe_packet();
  for (auto kernel : available_kernels()) {
    engine.force_prefilter_kernel(kernel);
    IdpsEngine::BatchScratch batch, ref_batch;
    for (int round = 0; round < 10; ++round) {
      std::size_t n = 1 + rng.uniform(0, 31);
      std::vector<Bytes> storage(n);
      std::vector<ByteView> payloads(n);
      std::vector<const Packet*> packets(n, &probe);
      for (std::size_t i = 0; i < n; ++i) {
        storage[i] = http_text(rng, 64 + rng.uniform(0, 1400));
        if (i % 3 == 0) plant_rules(rules, storage[i], rng);
        payloads[i] = storage[i];
      }
      std::vector<IdpsVerdict> got(n), want(n);
      engine.inspect_batch({packets.data(), n}, {payloads.data(), n}, batch,
                           got.data());
      oracle.inspect_batch_reference({packets.data(), n}, {payloads.data(), n},
                                     ref_batch, want.data());
      for (std::size_t i = 0; i < n; ++i)
        expect_verdict_eq(got[i], want[i],
                          std::string(common::simd_level_name(kernel)) +
                              " round " + std::to_string(round) + " packet " +
                              std::to_string(i));
    }
  }
  EXPECT_EQ(engine.alerts(), oracle.alerts());
  EXPECT_EQ(engine.drops(), oracle.drops());
}

TEST(LiteralPrefilter, RunsComeOnlyFromTrueFragmentOccurrences) {
  // On text, every nibble candidate is confirmed against the stored
  // fragments: the reported count equals a brute-force count of the
  // positions whose W bytes are a fragment, every run holds one, and
  // the fused pass equals the two single-set passes.
  Rng rng(109);
  auto rules = generate_community_ruleset(377, rng);
  IdpsEngine engine(rules);
  const LiteralPrefilter& cs = engine.cs_automaton().prefilter();
  const LiteralPrefilter& ci = engine.ci_automaton().prefilter();
  ASSERT_EQ(cs.fragment_width(), ci.fragment_width());
  const std::size_t w = cs.fragment_width();
  for (int round = 0; round < 60; ++round) {
    Bytes text = http_text(rng, 64 + rng.uniform(0, 1500));
    // Every other round also carries stored fragments, raw and (for
    // the nocase set) upper-cased.
    if (round % 2 == 1) plant_rules(rules, text, rng);
    std::size_t cs_occurrences = 0, ci_occurrences = 0;
    for (std::size_t p = 0; p + w <= text.size(); ++p) {
      cs_occurrences += cs.is_fragment({text.data() + p, w});
      ci_occurrences += ci.is_fragment({text.data() + p, w});
    }
    // Fragments are chosen rare in text: benign text holds none.
    if (round % 2 == 0 && cs_occurrences + ci_occurrences != 0) {
      for (std::size_t p = 0; p + w <= text.size(); ++p)
        if (cs.is_fragment({text.data() + p, w}) ||
            ci.is_fragment({text.data() + p, w}))
          ADD_FAILURE() << "fragment \""
                        << std::string(text.begin() + static_cast<std::ptrdiff_t>(p),
                                       text.begin() + static_cast<std::ptrdiff_t>(p + w))
                        << "\" in benign round " << round;
    }
    for (auto kernel : available_kernels()) {
      LiteralPrefilter cs_pinned = cs, ci_pinned = ci;
      cs_pinned.force_kernel(kernel);
      ci_pinned.force_kernel(kernel);
      std::vector<CandidateRun> cs_runs, ci_runs, fused_cs, fused_ci;
      EXPECT_EQ(cs_pinned.find_runs(text, cs_runs), cs_occurrences);
      EXPECT_EQ(ci_pinned.find_runs(text, ci_runs), ci_occurrences);
      EXPECT_EQ(LiteralPrefilter::find_runs(cs_pinned, ci_pinned, text,
                                            fused_cs, fused_ci),
                cs_occurrences + ci_occurrences);
      EXPECT_EQ(fused_cs, cs_runs) << common::simd_level_name(kernel);
      EXPECT_EQ(fused_ci, ci_runs) << common::simd_level_name(kernel);
      for (const auto& [filter, runs] :
           {std::pair{&cs_pinned, &cs_runs}, std::pair{&ci_pinned, &ci_runs}}) {
        for (const CandidateRun& run : *runs) {
          bool holds_fragment = false;
          for (std::size_t p = run.begin; p + w <= run.end; ++p)
            holds_fragment |= filter->is_fragment({text.data() + p, w});
          EXPECT_TRUE(holds_fragment)
              << "round " << round << " run [" << run.begin << "," << run.end
              << ") " << common::simd_level_name(kernel);
        }
      }
    }
  }
}

}  // namespace
}  // namespace endbox::idps

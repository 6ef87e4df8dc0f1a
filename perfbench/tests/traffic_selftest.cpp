// Self-tests of the benchmark's seeded generators. Run by perfbench/run.py
// before every measurement, and by `ctest` in the benchmark's build tree.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "traffic.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

Bytes serialize_all(const std::vector<Exchange>& exchanges) {
  Bytes out;
  for (const Exchange& ex : exchanges) {
    out.push_back(static_cast<std::uint8_t>(ex.client));
    Bytes up = ex.up.packet.serialize();
    out.insert(out.end(), up.begin(), up.end());
    for (const GenPacket& down : ex.down) {
      Bytes d = down.packet.serialize();
      out.insert(out.end(), d.begin(), d.end());
    }
  }
  return out;
}

std::vector<FlowTemplate> templates(std::uint64_t seed, Oracle& oracle) {
  Rng rng(seed);
  return make_flow_templates(200, rng, oracle);
}

void same_seed_same_bytes(Oracle& alert_oracle, Oracle& drop_oracle) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.mix == Mix::StreamDownloads) continue;
    Rng a(11), b(11), c(12);
    Bytes first = serialize_all(make_exchanges(spec, 300, a, alert_oracle));
    Bytes second = serialize_all(make_exchanges(spec, 300, b, alert_oracle));
    Bytes other = serialize_all(make_exchanges(spec, 300, c, alert_oracle));
    check(first == second, std::string(spec.name) + ": same seed, different exchanges");
    check(first != other, std::string(spec.name) + ": different seeds, same exchanges");
  }
  auto t1 = templates(5, drop_oracle);
  auto t2 = templates(5, drop_oracle);
  bool same = t1.size() == t2.size();
  for (std::size_t i = 0; same && i < t1.size(); ++i)
    same = t1[i].object == t2[i].object && t1[i].seg_end == t2[i].seg_end;
  check(same, "stream: same seed, different objects or segmentation");

  FlightScheduler s1(t1, 64, 3), s2(t2, 64, 3);
  bool flights_same = true;
  for (int i = 0; i < 5000 && flights_same; ++i) {
    auto f1 = s1.next(), f2 = s2.next();
    flights_same = f1.client_port == f2.client_port && f1.isn == f2.isn &&
                   f1.first == f2.first && f1.count == f2.count && f1.swap_at == f2.swap_at;
  }
  check(flights_same, "stream: same seed, different flight schedule");

  Rng d1(9), d2(9);
  check(poisson_due_times(d1, 5000, 1) == poisson_due_times(d2, 5000, 1),
        "open loop: same seed, different due times");
}

void benign_text_never_matches(Oracle& oracle) {
  Rng rng(77);
  std::size_t matched = 0;
  for (int i = 0; i < 400; ++i) {
    Bytes text(1400);
    fill_benign_text(rng, text);
    for (std::uint16_t port : {std::uint16_t{80}, std::uint16_t{443}, std::uint16_t{40000}}) {
      auto tcp = net::Packet::tcp(client_addr(0), server_addr(), 40001, port, 1, 1, 0x18, text);
      auto udp = net::Packet::udp(client_addr(0), server_addr(), 40001, port, text);
      matched += oracle.inspect(tcp).matched + oracle.inspect(udp).matched;
    }
  }
  check(matched == 0, "benign text matched " + std::to_string(matched) + " rule(s)");

  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.mix == Mix::StreamDownloads) continue;
    Rng gen(21);
    std::size_t planted = 0, unplanted_hits = 0, planted_misses = 0;
    for (const Exchange& ex : make_exchanges(spec, 2000, gen, oracle)) {
      std::vector<const GenPacket*> all = {&ex.up};
      for (const GenPacket& d : ex.down) all.push_back(&d);
      for (const GenPacket* p : all) {
        bool hit = oracle.inspect(p->packet).matched;
        planted += p->planted;
        unplanted_hits += !p->planted && hit;
        planted_misses += p->planted && !hit;
      }
    }
    check(unplanted_hits == 0, std::string(spec.name) + ": unplanted packet matched");
    check(planted_misses == 0, std::string(spec.name) + ": planted packet did not match");
    if (spec.mix == Mix::EnterpriseWeb)
      check(planted > 0, "enterprise_web: no planted packets in 2000 exchanges");
  }
}

void segmenter_reassembles(Oracle& drop_oracle) {
  auto flows = templates(31, drop_oracle);
  std::size_t segments = 0, small = 0, planted = 0;
  for (const FlowTemplate& flow : flows) {
    Bytes joined;
    std::uint32_t seq0 = 1000;
    for (std::size_t i = 0; i < flow.seg_end.size(); ++i) {
      net::Packet seg = download_segment(flow, i, 40000, seq0);
      check(seg.seq == seq0 + flow.seg_begin(i), "segment sequence number");
      joined.insert(joined.end(), seg.payload.begin(), seg.payload.end());
      check(!seg.payload.empty() && seg.payload.size() <= 1460, "segment size out of range");
      small += seg.payload.size() <= 64;
      ++segments;
    }
    check(joined == flow.object, "segments do not reassemble to the object");
    if (flow.planted) {
      ++planted;
      check(flow.kill_segment != kNone && flow.evasions >= 1,
            "planted flow not killed as a cross-segment match");
    } else {
      check(flow.kill_segment == kNone, "benign flow killed by the oracle");
    }
  }
  check(planted == 1, "expected exactly one planted object in 200");
  double share = static_cast<double>(small) / static_cast<double>(segments);
  check(share > 0.2 && share < 0.4, "share of <=64 B segments " + std::to_string(share));

  // Flights deliver every segment of every download exactly once, in
  // order except for swapped neighbours.
  FlightScheduler scheduler(flows, 32, 8);
  std::size_t swapped = 0, sent = 0;
  struct Progress {
    const FlowTemplate* flow;
    std::size_t next;
  };
  std::vector<std::pair<std::uint16_t, Progress>> live;
  for (int i = 0; i < 20000; ++i) {
    auto flight = scheduler.next();
    Progress* p = nullptr;
    for (auto& [port, progress] : live)
      if (port == flight.client_port) p = &progress;
    if (!p) {
      live.push_back({flight.client_port, {flight.flow, 0}});
      p = &live.back().second;
    }
    check(p->flow == flight.flow && p->next == flight.first, "flight skipped or repeated segments");
    check(flight.count >= 1 && flight.count <= 4, "flight size out of range");
    p->next += flight.count;
    sent += flight.count;
    swapped += flight.swap_at != kNone;
  }
  double swap_share = static_cast<double>(swapped) / static_cast<double>(sent);
  check(swap_share > 0.01 && swap_share < 0.03,
        "out-of-order share " + std::to_string(swap_share));
}

void due_times_follow_rate() {
  for (double rate : {2000.0, 20000.0}) {
    Rng rng(4);
    const double seconds = 5;
    auto due = poisson_due_times(rng, rate, seconds);
    double expected = rate * seconds;
    check(std::fabs(static_cast<double>(due.size()) - expected) < 4 * std::sqrt(expected),
          "arrival count " + std::to_string(due.size()) + " at rate " + std::to_string(rate));
    bool ordered = true;
    for (std::size_t i = 1; i < due.size(); ++i) ordered = ordered && due[i] >= due[i - 1];
    check(ordered && !due.empty() && due.back() < static_cast<std::int64_t>(seconds * 1e9),
          "due times not increasing within the phase");
    // Poisson arrivals: gaps have coefficient of variation 1.
    double mean = static_cast<double>(due.back()) / static_cast<double>(due.size());
    double var = 0;
    for (std::size_t i = 1; i < due.size(); ++i) {
      double gap = static_cast<double>(due[i] - due[i - 1]) - mean;
      var += gap * gap;
    }
    double cv = std::sqrt(var / static_cast<double>(due.size() - 1)) / mean;
    check(std::fabs(mean - 1e9 / rate) / (1e9 / rate) < 0.03, "mean gap off the rate");
    check(cv > 0.9 && cv < 1.1, "gap variation is not Poisson");
  }
}

}  // namespace

int main() {
  Oracle alert_oracle(community_rules(), false);
  Oracle drop_oracle(community_rules(), true);
  same_seed_same_bytes(alert_oracle, drop_oracle);
  benign_text_never_matches(alert_oracle);
  segmenter_reassembles(drop_oracle);
  due_times_follow_rate();
  if (g_failures) {
    std::fprintf(stderr, "perfbench self-tests: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench self-tests: PASS\n");
  return 0;
}

#include "traffic.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

namespace perfbench {

namespace {

// Open-loop rates are exchanges per second, about a third of the
// closed-loop capacity each workload showed when the benchmark was
// defined (4-core Xeon VM, RelWithDebInfo): open-loop rounds are small,
// so at half the capacity they ran close to saturation and the median
// latency swung by more than 25% from run to run. The ISP mix runs its
// server at one lane for the same reason (the two-lane hand-off stalls
// on processor wake-ups there); the traced run replays its uplink at 1,
// 2 and 4 lanes instead. The ISP mix runs 16 clients, not 64: per-packet
// cost is the same at 8, 16, 32 and 64 clients, but 64 enclaves take
// ~380 MB, and over five runs the spread of the fastest samples was 2.5x
// that at 16. Rollout counts give 1024 per-client samples.
constexpr WorkloadSpec kWorkloads[] = {
    {"enterprise_web", Mix::EnterpriseWeb, endbox::UseCase::Idps,
     /*clients=*/8, /*encrypt=*/true, /*server_lanes=*/1, /*enclave_lanes=*/1,
     /*round_exchanges=*/16, /*open_rate=*/3500.0, /*rollout_versions=*/128},
    {"isp_small_packets", Mix::IspSmallPackets, endbox::UseCase::Ddos,
     /*clients=*/16, /*encrypt=*/false, /*server_lanes=*/1, /*enclave_lanes=*/1,
     /*round_exchanges=*/64, /*open_rate=*/27000.0, /*rollout_versions=*/64},
    {"stream_downloads", Mix::StreamDownloads, endbox::UseCase::StreamIdps,
     /*clients=*/1, /*encrypt=*/true, /*server_lanes=*/1, /*enclave_lanes=*/2,
     /*round_exchanges=*/16, /*open_rate=*/5000.0, /*rollout_versions=*/1024},
};

// Benign vocabulary. No entry contains '_', which every generated rule
// content carries ("<prefix><suffix>_<n>"), so benign text cannot match.
constexpr const char* kWords[] = {
    "the",     "network", "packet",  "client",  "server",   "page",    "image",
    "style",   "script",  "content", "cache",   "session",  "account", "report",
    "market",  "weather", "travel",  "music",   "video",    "search",  "result",
    "office",  "project", "meeting", "budget",  "invoice",  "order",   "status",
    "update",  "release", "notes",   "table",   "column",   "value",   "number",
    "system",  "service", "library", "window",  "button",   "header",  "footer",
    "article", "comment", "profile", "friend",  "message",  "archive", "gallery",
    "and",     "with",    "from",    "into",    "over",     "under",   "about",
    "green",   "blue",    "quick",   "slow",    "bright",   "small",   "large",
    "river",   "mountain", "city",   "garden",  "kitchen",  "station", "harbor"};
constexpr const char* kSeparators[] = {" ", " ", " ", " ", ", ", ". ", "\n", " - "};

void write_text(Rng& rng, std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const char* word = kWords[rng.uniform(0, std::size(kWords) - 1)];
    for (const char* c = word; *c && i < n; ++c) out[i++] = static_cast<std::uint8_t>(*c);
    if (i < n && rng.uniform(0, 15) == 0) {
      std::string digits = std::to_string(rng.uniform(0, 9999));
      for (char c : digits)
        if (i < n) out[i++] = static_cast<std::uint8_t>(c);
    }
    const char* sep = kSeparators[rng.uniform(0, std::size(kSeparators) - 1)];
    for (const char* c = sep; *c && i < n; ++c) out[i++] = static_cast<std::uint8_t>(*c);
  }
}

/// `prefix` followed by benign text, `length` bytes in total.
Bytes text_payload(Rng& rng, std::string_view prefix, std::size_t length) {
  Bytes out(length);
  std::size_t head = std::min(prefix.size(), length);
  std::memcpy(out.data(), prefix.data(), head);
  write_text(rng, out.data() + head, length - head);
  return out;
}

std::string http_request_head(Rng& rng) {
  return "GET /" + std::string(kWords[rng.uniform(0, std::size(kWords) - 1)]) +
         "/page" + std::to_string(rng.uniform(0, 999)) +
         ".html HTTP/1.1\r\nHost: intranet.example.com\r\n"
         "User-Agent: endbox-bench\r\nAccept: text/html\r\nCookie: ";
}

constexpr std::string_view kResponseHead =
    "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nConnection: keep-alive\r\n\r\n"
    "<html><body><p>";

bool rule_applies(const idps::SnortRule& rule, const net::Packet& packet) {
  if (rule.proto && *rule.proto != packet.proto) return false;
  return rule.src.matches(packet.src) && rule.dst.matches(packet.dst) &&
         rule.src_port.matches(packet.src_port) &&
         rule.dst_port.matches(packet.dst_port);
}

std::size_t contents_length(const idps::SnortRule& rule) {
  std::size_t n = 0;
  for (const auto& content : rule.contents) n += content.bytes.size() + 1;
  return n;
}

GenPacket judged(net::Packet packet, bool planted, Oracle& oracle) {
  GenPacket gen;
  gen.drop = oracle.dropped(packet);
  gen.planted = planted;
  gen.packet = std::move(packet);
  return gen;
}

/// Writes every content of a rule that applies to `packet`'s header
/// (protocol and ports) into its payload at a random offset. Returns
/// false when no rule fits the payload.
bool plant_rule_content(Rng& rng, const std::vector<idps::SnortRule>& rules,
                        net::Packet& packet) {
  std::vector<const idps::SnortRule*> fitting;
  for (const auto& rule : rules)
    if (rule_applies(rule, packet) && contents_length(rule) <= packet.payload.size())
      fitting.push_back(&rule);
  if (fitting.empty()) return false;
  const idps::SnortRule& rule = *fitting[rng.uniform(0, fitting.size() - 1)];
  std::size_t at = rng.uniform(0, packet.payload.size() - contents_length(rule));
  for (const auto& content : rule.contents) {
    std::memcpy(packet.payload.data() + at, content.bytes.data(), content.bytes.size());
    at += content.bytes.size();
    packet.payload[at++] = ' ';
  }
  return true;
}

/// Plants rule content into about 0.5% of the packets it is given.
bool maybe_plant(Rng& rng, const std::vector<idps::SnortRule>& rules,
                 net::Packet& packet) {
  if (rng.uniform(0, 199) != 0) return false;
  return plant_rule_content(rng, rules, packet);
}

}  // namespace

std::span<const WorkloadSpec> all_workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return &spec;
  return nullptr;
}

std::vector<idps::SnortRule> community_rules() {
  Rng rules_rng(7);
  return idps::generate_community_ruleset(377, rules_rng);
}

void fill_benign_text(Rng& rng, std::span<std::uint8_t> out) {
  write_text(rng, out.data(), out.size());
}

net::Ipv4 client_addr(std::size_t client) {
  return net::Ipv4(10, 8, static_cast<std::uint8_t>(client / 250),
                   static_cast<std::uint8_t>(2 + client % 250));
}

net::Ipv4 server_addr() { return net::Ipv4(10, 0, 0, 1); }

Oracle::Oracle(std::vector<idps::SnortRule> rules, bool drop_mode)
    : rules_(rules), engine_(std::move(rules)), drop_mode_(drop_mode) {}

idps::IdpsVerdict Oracle::inspect(const net::Packet& packet) {
  return engine_.inspect_reference(packet, packet.payload, scratch_);
}

bool Oracle::dropped(const net::Packet& packet) {
  idps::IdpsVerdict verdict = inspect(packet);
  return verdict.drop || (drop_mode_ && verdict.matched);
}

Oracle::StreamOutcome Oracle::stream(const net::Packet& header, ByteView object,
                                     std::span<const std::uint32_t> seg_end) {
  StreamOutcome outcome;
  idps::StreamMatchState state;
  std::uint32_t begin = 0;
  for (std::size_t i = 0; i < seg_end.size(); ++i) {
    ByteView chunk = object.subspan(begin, seg_end[i] - begin);
    begin = seg_end[i];
    idps::IdpsVerdict verdict =
        engine_.inspect_stream_reference(header, chunk, state, scratch_);
    if (verdict.drop || (drop_mode_ && verdict.matched)) {
      outcome.kill_segment = i;
      outcome.evasions = state.cross_segment_matches;
      break;
    }
  }
  return outcome;
}

std::vector<Exchange> make_exchanges(const WorkloadSpec& spec, std::size_t count,
                                     Rng& rng, Oracle& oracle) {
  if (spec.mix == Mix::StreamDownloads)
    throw std::logic_error("make_exchanges: the stream mix uses FlightScheduler");
  const bool web = spec.mix == Mix::EnterpriseWeb;
  std::vector<Exchange> exchanges;
  exchanges.reserve(count);
  for (std::size_t e = 0; e < count; ++e) {
    Exchange ex;
    ex.client = static_cast<std::uint32_t>(rng.uniform(0, spec.clients - 1));
    net::Ipv4 client = client_addr(ex.client);
    if (web) {
      auto port = static_cast<std::uint16_t>(rng.uniform(1025, 65000));
      std::uint32_t client_seq = rng.next_u32();
      std::uint32_t server_seq = rng.next_u32();
      std::size_t request_len = rng.uniform(300, 600);
      net::Packet request = net::Packet::tcp(
          client, server_addr(), port, kServerPort, client_seq, server_seq, 0x18,
          text_payload(rng, http_request_head(rng), request_len));
      bool planted = maybe_plant(rng, oracle.rules(), request);
      ex.up = judged(std::move(request), planted, oracle);
      std::size_t replies = rng.uniform(1, 4);
      for (std::size_t r = 0; r < replies; ++r) {
        std::size_t len = rng.uniform(256, 1400);
        net::Packet reply = net::Packet::tcp(
            server_addr(), client, kServerPort, port, server_seq,
            client_seq + static_cast<std::uint32_t>(request_len), 0x18,
            text_payload(rng, r == 0 ? kResponseHead : std::string_view{}, len));
        server_seq += static_cast<std::uint32_t>(len);
        bool reply_planted = maybe_plant(rng, oracle.rules(), reply);
        ex.down.push_back(judged(std::move(reply), reply_planted, oracle));
      }
    } else {
      // Four UDP flows per client, one small reply per request.
      auto flow = static_cast<std::uint16_t>(rng.uniform(0, 3));
      auto client_port = static_cast<std::uint16_t>(20000 + flow);
      auto server_port = static_cast<std::uint16_t>(5000 + flow);
      ex.up = judged(net::Packet::udp(client, server_addr(), client_port, server_port,
                                      text_payload(rng, {}, rng.uniform(16, 96))),
                     false, oracle);
      ex.down.push_back(judged(
          net::Packet::udp(server_addr(), client, server_port, client_port,
                           text_payload(rng, {}, rng.uniform(16, 96))),
          false, oracle));
    }
    exchanges.push_back(std::move(ex));
  }
  return exchanges;
}

namespace {

/// Segment sizes of 8..1460 bytes, about 30% of them at most 64 bytes.
/// When `forced_boundary` is in (0, length) some segment ends exactly
/// there.
std::vector<std::uint32_t> segment_object(Rng& rng, std::size_t length,
                                          std::size_t forced_boundary) {
  std::vector<std::uint32_t> ends;
  std::size_t at = 0;
  while (at < length) {
    std::size_t size = rng.uniform(0, 9) < 3 ? rng.uniform(8, 64) : rng.uniform(65, 1460);
    std::size_t end = std::min(length, at + size);
    if (at < forced_boundary && forced_boundary < end) end = forced_boundary;
    ends.push_back(static_cast<std::uint32_t>(end));
    at = end;
  }
  return ends;
}

}  // namespace

net::Packet download_segment(const FlowTemplate& flow, std::size_t segment,
                             std::uint16_t client_port, std::uint32_t isn) {
  std::uint32_t begin = flow.seg_begin(segment);
  std::uint32_t end = flow.seg_end[segment];
  return net::Packet::tcp(server_addr(), client_addr(0), kServerPort, client_port,
                          isn + begin, 1, 0x18,
                          Bytes(flow.object.begin() + begin, flow.object.begin() + end));
}

net::Packet download_ack(std::uint16_t client_port, std::uint32_t ack) {
  return net::Packet::tcp(client_addr(0), server_addr(), client_port, kServerPort, 1,
                          ack, 0x10, {});
}

std::vector<FlowTemplate> make_flow_templates(std::size_t count, Rng& rng,
                                              Oracle& oracle) {
  // Planted contents must fire on a download segment: TCP (or any
  // protocol), any ports, one content literal.
  std::vector<const idps::SnortRule*> stream_rules;
  for (const auto& rule : oracle.rules())
    if ((!rule.proto || *rule.proto == net::IpProto::Tcp) && rule.src_port.any &&
        rule.dst_port.any && rule.contents.size() == 1)
      stream_rules.push_back(&rule);
  const std::size_t plant_phase = rng.uniform(0, 199);
  std::vector<FlowTemplate> flows(count);
  for (std::size_t i = 0; i < count; ++i) {
    FlowTemplate& flow = flows[i];
    std::size_t size = rng.uniform(4096, 65536);
    flow.object = text_payload(rng, kResponseHead, size);
    std::size_t boundary = 0;
    if (i % 200 == plant_phase) {
      const auto& content =
          stream_rules[rng.uniform(0, stream_rules.size() - 1)]->contents[0].bytes;
      std::size_t at = rng.uniform(256, size - content.size() - 256);
      std::memcpy(flow.object.data() + at, content.data(), content.size());
      boundary = at + rng.uniform(1, content.size() - 1);
      flow.planted = true;
    }
    flow.seg_end = segment_object(rng, size, boundary);
    auto outcome = oracle.stream(download_segment(flow, 0, 40000, 0), flow.object,
                                 flow.seg_end);
    flow.kill_segment = outcome.kill_segment;
    flow.evasions = outcome.evasions;
  }
  return flows;
}

FlightScheduler::FlightScheduler(std::span<const FlowTemplate> templates,
                                 std::size_t concurrent, std::uint64_t seed)
    : templates_(templates), rng_(seed), order_(templates.size()) {
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::shuffle(order_.begin(), order_.end(), rng_.engine());
  live_.reserve(concurrent);
  for (std::size_t i = 0; i < concurrent; ++i) live_.push_back(fresh());
}

FlightScheduler::Live FlightScheduler::fresh() {
  Live live;
  live.flow = &templates_[order_[next_template_++ % order_.size()]];
  // Ports cycle through 1025..65024; a port comes back only after
  // 64000 newer downloads, long after its flow state idled out.
  live.port = static_cast<std::uint16_t>(1025 + flows_started_++ % 64000);
  live.isn = rng_.next_u32();
  live.next_segment = 0;
  return live;
}

FlightScheduler::Flight FlightScheduler::next() {
  Live& live = live_[rng_.uniform(0, live_.size() - 1)];
  Flight flight;
  flight.flow = live.flow;
  flight.client_port = live.port;
  flight.isn = live.isn;
  flight.first = live.next_segment;
  flight.count = std::min<std::size_t>(rng_.uniform(1, 4),
                                       live.flow->seg_end.size() - live.next_segment);
  for (std::size_t j = 0; j + 1 < flight.count; ++j) {
    if (rng_.uniform(0, 29) == 0) {
      flight.swap_at = j;
      break;
    }
  }
  live.next_segment += flight.count;
  if (live.next_segment == live.flow->seg_end.size()) live = fresh();
  return flight;
}

std::vector<std::int64_t> poisson_due_times(Rng& rng, double rate, double seconds) {
  std::vector<std::int64_t> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  const double horizon = seconds * 1e9;
  const double mean_gap = 1e9 / rate;
  for (;;) {
    t += rng.exponential(mean_gap);
    if (t >= horizon) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

}  // namespace perfbench

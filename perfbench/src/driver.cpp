#include "driver.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "alloc_counter.hpp"
#include "common/bytes.hpp"
#include "net/checksum.hpp"

namespace perfbench {

namespace {

using endbox::get_u16;
using endbox::get_u32;

// Exchange pool sizes: large enough that the per-round working set
// cycles through more packet bytes than the last-level cache holds.
constexpr std::size_t kWebExchanges = 4096;
constexpr std::size_t kIspExchanges = 16384;
constexpr std::size_t kStreamObjects = 600;

/// Fills a pool-backed packet with `from`'s header and payload, reusing
/// the payload buffer's capacity.
void copy_packet(const net::Packet& from, net::Packet& to) {
  to.src = from.src;
  to.dst = from.dst;
  to.proto = from.proto;
  to.tos = from.tos;
  to.ttl = from.ttl;
  to.ip_id = from.ip_id;
  to.src_port = from.src_port;
  to.dst_port = from.dst_port;
  to.seq = from.seq;
  to.ack = from.ack;
  to.tcp_flags = from.tcp_flags;
  to.payload.assign(from.payload.begin(), from.payload.end());
}

/// Rewrites the IP identification field of a serialized packet (the
/// driver's per-round packet tag) and fixes the header checksum.
void set_ip_id(Bytes& wire, std::uint16_t id) {
  wire[4] = static_cast<std::uint8_t>(id >> 8);
  wire[5] = static_cast<std::uint8_t>(id);
  wire[10] = wire[11] = 0;
  std::uint16_t sum =
      endbox::net::internet_checksum(ByteView(wire.data(), net::kIpv4HeaderSize));
  wire[10] = static_cast<std::uint8_t>(sum >> 8);
  wire[11] = static_cast<std::uint8_t>(sum);
}

/// True when serialized `wire` carries `expect`'s addresses, ports,
/// sequence numbers and payload byte for byte. The TOS byte and the IP
/// checksum are not compared: the enclave marks egress packets as
/// processed (QoS flag), which is part of the contract.
bool wire_matches(ByteView wire, const net::Packet& expect) {
  if (wire.size() != expect.wire_size()) return false;
  const std::uint8_t* p = wire.data();
  if (p[9] != static_cast<std::uint8_t>(expect.proto)) return false;
  if (get_u32(p + 12) != expect.src.value() || get_u32(p + 16) != expect.dst.value())
    return false;
  if (get_u16(p + 20) != expect.src_port || get_u16(p + 22) != expect.dst_port)
    return false;
  if (expect.proto == net::IpProto::Tcp &&
      (get_u32(p + 24) != expect.seq || get_u32(p + 28) != expect.ack))
    return false;
  std::size_t offset = net::kIpv4HeaderSize + expect.l4_header_size();
  return std::memcmp(p + offset, expect.payload.data(), expect.payload.size()) == 0;
}

bool packet_matches(const net::Packet& got, const net::Packet& expect) {
  return got.src == expect.src && got.dst == expect.dst && got.proto == expect.proto &&
         got.src_port == expect.src_port && got.dst_port == expect.dst_port &&
         got.seq == expect.seq && got.ack == expect.ack && got.payload == expect.payload;
}

void spin_until(std::int64_t deadline) {
  while (now_ns() < deadline) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"burst\":%u}\n",
                 s.name, static_cast<long long>(s.start), static_cast<long long>(s.end),
                 s.parent, s.burst);
  return std::fclose(f) == 0;
}

Tally& Tally::operator+=(const Tally& o) {
  attempted += o.attempted;
  delivered += o.delivered;
  expected_drops += o.expected_drops;
  failed += o.failed;
  spurious += o.spurious;
  call_errors += o.call_errors;
  payload_bytes += o.payload_bytes;
  up_packets += o.up_packets;
  down_packets += o.down_packets;
  up_frames += o.up_frames;
  down_frames += o.down_frames;
  open_rejected += o.open_rejected;
  egress_ns += o.egress_ns;
  open_ns += o.open_ns;
  seal_ns += o.seal_ns;
  ingress_ns += o.ingress_ns;
  round_ns += o.round_ns;
  elapsed_ns += o.elapsed_ns;
  return *this;
}

// ---- Sources ---------------------------------------------------------------

void PoolSource::stage(Round& round, std::int64_t due) {
  const Exchange& ex = pool_[next_++ % pool_.size()];
  StagedExchange staged;
  staged.client = ex.client;
  staged.due = due;
  staged.up = {&ex.up.packet, ex.up.drop};
  staged.down_begin = static_cast<std::uint32_t>(round.downs.size());
  staged.down_count = static_cast<std::uint32_t>(ex.down.size());
  for (const GenPacket& reply : ex.down) round.downs.push_back({&reply.packet, reply.drop});
  round.exchanges.push_back(staged);
}

void FlightSource::stage(Round& round, std::int64_t due) {
  FlightScheduler::Flight flight = scheduler_.next();
  const FlowTemplate& flow = *flight.flow;
  StagedExchange staged;
  staged.client = 0;
  staged.due = due;
  round.owned.push_back(
      download_ack(flight.client_port, flight.isn + flow.seg_begin(flight.first)));
  staged.up = {&round.owned.back(), false};
  staged.down_begin = static_cast<std::uint32_t>(round.downs.size());
  staged.down_count = static_cast<std::uint32_t>(flight.count);
  for (std::size_t k = 0; k < flight.count; ++k) {
    // A swapped pair arrives later segment first.
    std::size_t pos = k;
    if (flight.swap_at != kNone && k == flight.swap_at) pos = k + 1;
    if (flight.swap_at != kNone && k == flight.swap_at + 1) pos = k - 1;
    std::size_t segment = flight.first + pos;
    round.owned.push_back(download_segment(flow, segment, flight.client_port, flight.isn));
    bool killed = flow.kill_segment != kNone && segment >= flow.kill_segment;
    round.downs.push_back({&round.owned.back(), killed});
    if (segment == flow.kill_segment) {
      expected_evasions += flow.evasions;
      ++expected_kills;
    }
  }
  round.exchanges.push_back(staged);
}

std::unique_ptr<Source> make_source(const WorkloadSpec& spec, std::uint64_t seed,
                                    const std::vector<idps::SnortRule>& rules) {
  bool drop_mode = spec.use_case == endbox::UseCase::StreamIdps;
  Oracle oracle(rules, drop_mode);
  Rng rng(seed ^ 0x7261666669635eedULL);
  switch (spec.mix) {
    case Mix::EnterpriseWeb:
      return std::make_unique<PoolSource>(make_exchanges(spec, kWebExchanges, rng, oracle));
    case Mix::IspSmallPackets:
      return std::make_unique<PoolSource>(make_exchanges(spec, kIspExchanges, rng, oracle));
    case Mix::StreamDownloads:
      return std::make_unique<FlightSource>(
          make_flow_templates(kStreamObjects, rng, oracle), rng.next_u64());
  }
  throw std::logic_error("make_source: unknown mix");
}

// ---- Driver ----------------------------------------------------------------

Driver::Driver(Deployment& deployment, Source& source)
    : dep_(deployment), source_(source), scratch_(deployment.clients.size()) {
  std::size_t per_round = deployment.spec.round_exchanges;
  round_.owned.reserve(per_round * 5);
  round_.exchanges.reserve(per_round);
  round_.downs.reserve(per_round * 4);
}

void Driver::stage_replies(std::uint32_t client, StagedExchange& exchange,
                           Round& round) {
  ClientScratch& cs = scratch_[client];
  for (std::uint32_t k = 0; k < exchange.down_count; ++k) {
    const PacketRef& ref = round.downs[exchange.down_begin + k];
    if (wire_count_ == wires_.size()) wires_.emplace_back();
    Bytes& wire = wires_[wire_count_];
    ref.packet->serialize_into(wire);
    set_ip_id(wire, static_cast<std::uint16_t>(cs.down_slots.size()));
    cs.down_slots.push_back({ref, static_cast<std::uint32_t>(wire_count_), false});
    ++wire_count_;
  }
}

void Driver::check_uplink(const endbox::vpn::VpnServer::BatchPacket& opened,
                          Round& round, Tally& tally) {
  if (opened.session_id >= dep_.client_of_session.size() ||
      opened.ip_packet.size() < net::kIpv4HeaderSize) {
    ++tally.spurious;
    return;
  }
  std::uint32_t client = dep_.client_of_session[opened.session_id];
  ClientScratch& cs = scratch_[client];
  std::uint16_t tag = get_u16(opened.ip_packet.data() + 4);
  if (tag >= cs.up_slots.size() || cs.up_slots[tag].arrived) {
    ++tally.spurious;
    return;
  }
  UpSlot& slot = cs.up_slots[tag];
  slot.arrived = true;
  if (slot.ref.drop || !wire_matches(opened.ip_packet, *slot.ref.packet)) {
    ++tally.failed;  // a planted packet got through, or bytes changed
    return;
  }
  ++tally.delivered;
  tally.payload_bytes += slot.ref.packet->payload.size();
  StagedExchange& exchange = round.exchanges[slot.exchange];
  exchange.request_arrived = true;
  stage_replies(client, exchange, round);
}

void Driver::run_round(Round& round, Tally& tally, Tracer* tracer, Capture* capture) {
  const bool traced = tracer != nullptr;
  const bool capturing = capture && capture->rounds.size() < capture->limit;
  const std::uint32_t burst = burst_++;
  const std::int64_t round_start = now_ns();
  const std::int32_t round_span =
      traced ? tracer->add("round", round_start, round_start, -1, burst) : -1;

  // Stage: each client's requests into a pool-backed burst, tagged with
  // their slot index in the IP id field.
  touched_.clear();
  for (std::uint32_t e = 0; e < round.exchanges.size(); ++e) {
    const StagedExchange& ex = round.exchanges[e];
    ClientScratch& cs = scratch_[ex.client];
    if (cs.exchanges.empty()) touched_.push_back(ex.client);
    cs.exchanges.push_back(e);
    net::Packet packet = dep_.clients[ex.client]->client.enclave().packet_pool().acquire();
    copy_packet(*ex.up.packet, packet);
    packet.ip_id = static_cast<std::uint16_t>(cs.up_slots.size());
    cs.up.push_back(std::move(packet));
    cs.up_slots.push_back({ex.up, e, false});
  }

  // 1. Client enclave egress.
  uplink_count_ = 0;
  for (std::uint32_t c : touched_) {
    ClientScratch& cs = scratch_[c];
    tally.up_packets += cs.up_slots.size();
    tally.attempted += cs.up_slots.size();
    std::int64_t start = now_ns();
    bool ok;
    {
      AllocScope count(traced);
      ok = dep_.clients[c]->client.send_batch(std::move(cs.up), cs.egress, 0).ok();
    }
    std::int64_t end = now_ns();
    cs.up.clear();
    cs.egress_ns = end - start;
    tally.egress_ns += end - start;
    if (traced) tracer->add("endbox.egress", start, end, round_span, burst);
    if (capturing) cs.up_frame_sizes.clear();
    if (!ok) {
      ++tally.call_errors;
      continue;
    }
    for (std::size_t f = 0; f < cs.egress.frame_count; ++f) {
      if (uplink_count_ == uplink_.size()) uplink_.emplace_back();
      uplink_[uplink_count_++].swap(cs.egress.frames[f]);
      if (capturing) cs.up_frame_sizes.push_back(
          static_cast<std::uint32_t>(uplink_[uplink_count_ - 1].size()));
    }
  }
  tally.up_frames += uplink_count_;

  // 2. Server open.
  auto& vpn = dep_.server.vpn();
  std::span<const Bytes> uplink(uplink_.data(), uplink_count_);
  std::int64_t open_start = now_ns();
  {
    AllocScope count(traced);
    vpn.open_batch(uplink, 0, opened_);
  }
  std::int64_t open_end = now_ns();
  open_span_ns_ = open_end - open_start;
  tally.open_ns += open_span_ns_;
  tally.open_rejected += opened_.rejected;
  if (traced) tracer->add("vpn.open", open_start, open_end, round_span, burst);

  // The managed network answers every request that arrived intact.
  wire_count_ = 0;
  for (std::size_t i = 0; i < opened_.packet_count; ++i)
    check_uplink(opened_.packets[i], round, tally);
  for (std::uint32_t c : touched_) {
    for (const UpSlot& slot : scratch_[c].up_slots) {
      if (slot.arrived) continue;
      if (slot.ref.drop) {
        ++tally.expected_drops;
      } else {
        ++tally.failed;
      }
    }
  }

  // 3. Server seal, one job run per client so each client's frames are
  // contiguous.
  jobs_.clear();
  for (std::uint32_t c : touched_) {
    ClientScratch& cs = scratch_[c];
    cs.down_first = jobs_.size();
    for (const DownSlot& slot : cs.down_slots)
      jobs_.push_back({dep_.clients[c]->session_id, wires_[slot.wire]});
  }
  tally.down_packets += jobs_.size();
  tally.attempted += jobs_.size();
  std::size_t frames = 0;
  std::int64_t seal_start = now_ns();
  if (!jobs_.empty()) {
    AllocScope count(traced);
    frames = vpn.seal_jobs(jobs_, down_frames_);
  }
  std::int64_t seal_end = now_ns();
  seal_span_ns_ = seal_end - seal_start;
  tally.seal_ns += seal_span_ns_;
  tally.down_frames += frames;
  if (traced) tracer->add("vpn.seal", seal_start, seal_end, round_span, burst);
  if (frames != jobs_.size())
    throw std::runtime_error("seal_jobs fragmented a reply; frames no longer map to packets");

  // 4. Client enclave ingress.
  for (std::uint32_t c : touched_) {
    ClientScratch& cs = scratch_[c];
    if (cs.down_slots.empty()) continue;
    endbox::EndBoxClient& client = dep_.clients[c]->client;
    std::span<const Bytes> wires(down_frames_.data() + cs.down_first, cs.down_slots.size());
    std::int64_t start = now_ns();
    bool ok;
    {
      AllocScope count(traced);
      ok = client.receive_batch(wires, cs.ingress, 0).ok();
    }
    std::int64_t end = now_ns();
    cs.ingress_ns = end - start;
    tally.ingress_ns += end - start;
    if (traced) tracer->add("endbox.ingress", start, end, round_span, burst);
    if (!ok) ++tally.call_errors;
    for (net::Packet& packet : cs.ingress.packets) {
      if (packet.ip_id >= cs.down_slots.size() || cs.down_slots[packet.ip_id].arrived) {
        ++tally.spurious;
      } else {
        DownSlot& slot = cs.down_slots[packet.ip_id];
        slot.arrived = true;
        if (slot.ref.drop || !packet_matches(packet, *slot.ref.packet)) {
          ++tally.failed;
        } else {
          ++tally.delivered;
          tally.payload_bytes += packet.payload.size();
        }
      }
      client.enclave().packet_pool().release(std::move(packet));
    }
    cs.ingress.packets.clear();
    for (const DownSlot& slot : cs.down_slots) {
      if (slot.arrived) continue;
      if (slot.ref.drop) {
        ++tally.expected_drops;
      } else {
        ++tally.failed;
      }
    }
    for (std::uint32_t e : cs.exchanges)
      if (round.exchanges[e].request_arrived) round.exchanges[e].done = end;
  }

  std::int64_t round_end = now_ns();
  if (traced) tracer->set_end(round_span, round_end);
  tally.round_ns += round_end - round_start;

  // Capture copies and replays run after round_end, outside the timed
  // main path.
  if (capturing) capture_round(*capture, round_end - round_start);
  if (traced && burst % 16 == 0) {
    std::size_t tracked = 0;
    for (const auto& rig : dep_.clients)
      tracked += rig->client.enclave().stream_stats().flows_tracked;
    flows_tracked_peak_ = std::max(flows_tracked_peak_, tracked);
  }
  for (std::uint32_t c : touched_) {
    ClientScratch& cs = scratch_[c];
    cs.up_slots.clear();
    cs.down_slots.clear();
    cs.exchanges.clear();
  }
}

void Driver::capture_round(Capture& capture, std::int64_t round_ns) {
  CapturedRound cr;
  cr.round_ns = round_ns;
  cr.open_ns = open_span_ns_;
  cr.seal_ns = seal_span_ns_;
  cr.uplink.assign(uplink_.begin(), uplink_.begin() + static_cast<std::ptrdiff_t>(uplink_count_));
  for (std::uint32_t c : touched_) {
    ClientScratch& cs = scratch_[c];
    CapturedCall up;
    up.client = c;
    up.ns = cs.egress_ns;
    up.frame_sizes = cs.up_frame_sizes;
    for (const UpSlot& slot : cs.up_slots) {
      up.packets.push_back(*slot.ref.packet);
      up.drop.push_back(slot.ref.drop);
    }
    cr.egress.push_back(std::move(up));
    if (cs.down_slots.empty()) continue;
    CapturedCall down;
    down.client = c;
    down.ns = cs.ingress_ns;
    for (std::size_t k = 0; k < cs.down_slots.size(); ++k) {
      down.packets.push_back(*cs.down_slots[k].ref.packet);
      down.drop.push_back(cs.down_slots[k].ref.drop);
      down.frame_sizes.push_back(
          static_cast<std::uint32_t>(down_frames_[cs.down_first + k].size()));
    }
    cr.ingress.push_back(std::move(down));
  }
  capture.rounds.push_back(std::move(cr));
  if (capture.on_round) capture.on_round(capture.rounds.back());
}

Tally Driver::run_closed(double seconds, Tracer* tracer, Capture* capture,
                         std::vector<RoundTiming>* rounds) {
  Tally tally;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t per_round = dep_.spec.round_exchanges;
  std::int64_t round_start = start;
  while (round_start < end) {
    const Tally before = tally;
    round_.clear();
    for (std::size_t i = 0; i < per_round; ++i) source_.stage(round_, 0);
    run_round(round_, tally, tracer, capture);
    const std::int64_t round_end = now_ns();
    if (rounds)
      rounds->push_back({round_end - round_start, tally.client_ns() - before.client_ns(),
                         tally.gateway_ns() - before.gateway_ns(),
                         static_cast<std::uint32_t>(tally.delivered - before.delivered),
                         static_cast<std::uint32_t>(tally.payload_bytes - before.payload_bytes)});
    round_start = round_end;
  }
  tally.elapsed_ns = now_ns() - start;
  return tally;
}

OpenLoopResult Driver::run_open(double seconds, Rng& rng, Tracer* tracer) {
  OpenLoopResult result;
  std::vector<std::int64_t> due = poisson_due_times(rng, dep_.spec.open_rate, seconds);
  const std::size_t per_round = dep_.spec.round_exchanges;
  const std::int64_t start = now_ns();
  // A generator that falls a full second behind stops sending; what
  // remains due counts as not sent.
  const std::int64_t give_up = start + static_cast<std::int64_t>((seconds + 1.0) * 1e9);
  std::size_t next = 0;
  result.latency_us.reserve(due.size());
  result.lag_us.reserve(due.size());
  while (next < due.size()) {
    std::int64_t now = now_ns();
    if (now > give_up) break;
    if (start + due[next] > now) {
      spin_until(start + due[next]);
      now = now_ns();
    }
    std::size_t ready = next;
    while (ready < due.size() && start + due[ready] <= now) ++ready;
    result.backlog_max = std::max<std::uint64_t>(result.backlog_max, ready - next);
    std::size_t take = std::min(ready - next, per_round);
    round_.clear();
    for (std::size_t i = 0; i < take; ++i) {
      std::int64_t when = start + due[next + i];
      result.lag_us.push_back(static_cast<double>(now - when) / 1e3);
      source_.stage(round_, when);
    }
    next += take;
    run_round(round_, result.tally, tracer, nullptr);
    for (const StagedExchange& ex : round_.exchanges)
      if (ex.done >= 0) result.latency_us.push_back(static_cast<double>(ex.done - ex.due) / 1e3);
  }
  result.not_sent = due.size() - next;
  result.tally.elapsed_ns = now_ns() - start;
  return result;
}

}  // namespace perfbench

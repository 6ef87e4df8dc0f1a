// perfbench: wall-clock round trips through EndBox.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// One process, one load-generating thread. Each round pushes real bytes
// through every involved client's enclave egress (EndBoxClient::
// send_batch), the VPN server's open (VpnServer::open_batch), a reply
// from the managed-network side, the server's seal (seal_jobs) and the
// client's enclave ingress (receive_batch). Frames are handed over in
// memory; no link and no netsim is on the path.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans around every layer call, replays captured rounds
// through standalone layer instances, and prints the per-layer metrics
// with an attribution table. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "common/cpu_features.hpp"
#include "driver.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

// Phase split of --seconds. Untraced: a warm-up, then epochs of a
// closed-loop and an open-loop slice (see run_end_to_end). Traced: an
// untraced closed slice (the tracing-overhead baseline), then traced
// closed and open slices.
constexpr double kWarmupShare = 0.1;
constexpr int kEpochs = 40;
constexpr double kClosedShare = 0.45;
constexpr double kOpenShare = 0.45;
constexpr double kBaselineShare = 0.3;
constexpr double kTracedClosedShare = 0.35;
constexpr double kTracedOpenShare = 0.25;
constexpr int kSetups = 9;
// Closed-loop samples: consecutive rounds spanning at least kSampleNs of
// wall time. Each closed-loop metric is the value of the sample at the
// kFastQuantile fast end (see closed_loop_metrics).
constexpr std::int64_t kSampleNs = 1'000'000;
constexpr double kFastQuantile = 0.005;
// Latency and rollout medians are taken per window of consecutive
// exchanges / client rollouts, and reported at the same fast end.
constexpr std::size_t kLatencyWindow = 32;
constexpr std::size_t kRolloutWindow = 4;
constexpr std::size_t kCaptureRounds = 256;

// ---- Output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count or derivation, printed only
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << format_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

// ---- Provenance ------------------------------------------------------------

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      auto colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "";
}

bool cpu_flag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  std::string word;
  while (in >> word)
    if (word == flag) return true;
  return false;
}

std::size_t thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Provenance {
  std::size_t threads_max = 0;
  void sample_threads() { threads_max = std::max(threads_max, thread_count()); }

  /// Prints the provenance line and a warning line for each condition
  /// that makes the timings unrepresentative.
  void print(Deployment& dep) const {
    std::vector<std::string> warnings;
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::string flags = cpuinfo_field("flags");
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    const bool forced_scalar = endbox::common::force_scalar();
    idps::IdpsEngine probe(dep.rules);
    const char* kernel = endbox::common::simd_level_name(
        probe.prefilter_enabled() ? probe.cs_automaton().prefilter().kernel()
                                  : endbox::common::SimdLevel::Scalar);
    if (!optimized) warnings.push_back("unoptimised build: timings are not representative");
    if (forced_scalar) warnings.push_back("ENDBOX_FORCE_SCALAR set: scalar prefilter forced");
    if (!probe.prefilter_enabled()) warnings.push_back("prefilter disabled for this rule set");
    if (static_cast<long>(threads_max) > nproc)
      warnings.push_back("more threads than processors");
    std::printf(
        "provenance: {\"nproc\": %ld, \"cpu\": \"%s\", \"aes\": %s, \"sha_ni\": %s, "
        "\"avx2\": %s, \"build_type\": \"%s\", \"optimized\": %s, "
        "\"prefilter_kernel\": \"%s\", \"force_scalar\": %s, \"server_lanes\": %zu, "
        "\"enclave_lanes\": %zu, \"threads_observed\": %zu, \"path\": \"in-memory "
        "hand-off, no link, no netsim\"}\n",
        nproc, cpuinfo_field("model name").c_str(), cpu_flag(flags, "aes") ? "true" : "false",
        cpu_flag(flags, "sha_ni") ? "true" : "false",
        cpu_flag(flags, "avx2") ? "true" : "false", PERFBENCH_BUILD_TYPE,
        optimized ? "true" : "false", kernel, forced_scalar ? "true" : "false",
        dep.server.vpn().session_shard_count(),
        dep.clients.empty() ? std::size_t{0} : dep.clients[0]->client.enclave().shard_count(),
        threads_max);
    for (const std::string& w : warnings) std::printf("WARNING: %s\n", w.c_str());
  }
};

// ---- Correctness bookkeeping ---------------------------------------------

struct Verdicts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const Tally& t, const char* phase) {
    attempted += t.attempted;
    failed += t.failed + t.spurious;
    if (!t.conserved())
      errors.push_back(std::string(phase) + ": conservation violated (attempted " +
                       std::to_string(t.attempted) + " != delivered " +
                       std::to_string(t.delivered) + " + expected drops " +
                       std::to_string(t.expected_drops) + " + failed " +
                       std::to_string(t.failed) + ")");
    if (t.failed || t.spurious || t.call_errors || t.open_rejected)
      errors.push_back(std::string(phase) + ": " + std::to_string(t.failed) + " failed, " +
                       std::to_string(t.spurious) + " spurious, " +
                       std::to_string(t.call_errors) + " call errors, " +
                       std::to_string(t.open_rejected) + " frames rejected");
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  bool correct() const { return errors.empty(); }
};

// ---- Rollout ---------------------------------------------------------------

struct RolloutResult {
  std::vector<double> ms;          ///< ping -> installed -> confirmed, per client
  std::vector<double> install_ms;  ///< handle_server_ping with the update
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Pushes `versions` new config versions to every client: publish, then
/// per client the server's ping announcing it, the client's fetch +
/// verify + decrypt + parse + compile + hot swap, and the confirming
/// ping the server records. Appends to `result`.
void run_rollout(Deployment& dep, std::size_t versions, RolloutResult& result,
                 Tracer* tracer) {
  auto& server = dep.server;
  for (std::size_t v = 0; v < versions; ++v) {
    std::uint32_t version = ++dep.config_version;
    auto published = server.publish_config(
        version, versioned_config(dep.spec.use_case, version), true, 3600, 0);
    for (auto& rig : dep.clients) {
      ++result.attempted;
      if (!published.ok()) {
        ++result.failed;
        continue;
      }
      std::int64_t start = now_ns();
      endbox::Bytes ping = server.create_ping(rig->session_id);
      std::int64_t install_start = now_ns();
      auto outcome = rig->client.handle_server_ping(ping, &server.file_server(), 0);
      std::int64_t install_end = now_ns();
      auto confirm = rig->client.create_ping(0);
      bool confirmed = false;
      if (confirm.ok()) {
        auto handled = server.handle_wire(*confirm, 0);
        confirmed = handled.ok() &&
                    std::holds_alternative<endbox::vpn::VpnServer::PingIn>(handled->event);
      }
      std::int64_t end = now_ns();
      bool ok = outcome.ok() && outcome->update_started && confirmed &&
                server.vpn().session_config_version(rig->session_id) == version &&
                rig->client.enclave().config_version() == version;
      if (!ok) ++result.failed;
      result.ms.push_back(static_cast<double>(end - start) / 1e6);
      result.install_ms.push_back(static_cast<double>(install_end - install_start) / 1e6);
      if (tracer) {
        std::int32_t parent = tracer->add("rollout.client", start, end, -1,
                                          static_cast<std::uint32_t>(version));
        tracer->add("endbox.install", install_start, install_end, parent,
                    static_cast<std::uint32_t>(version));
      }
    }
  }
}

endbox::EndBoxEnclave::StreamStatsSnapshot stream_totals(const Deployment& dep) {
  endbox::EndBoxEnclave::StreamStatsSnapshot total;
  for (const auto& rig : dep.clients) {
    auto s = rig->client.enclave().stream_stats();
    total.flows_tracked += s.flows_tracked;
    total.flows_rejected_full += s.flows_rejected_full;
    total.bytes_buffered_peak = std::max(total.bytes_buffered_peak, s.bytes_buffered_peak);
    total.segments_parked += s.segments_parked;
    total.evasions_caught += s.evasions_caught;
    total.flows_killed += s.flows_killed;
    total.fallback_scans += s.fallback_scans;
  }
  return total;
}

/// The enclaves must have caught exactly the planted split contents and
/// killed exactly the planted flows the traffic carried.
void check_stream(const Deployment& dep, const Source& source, Verdicts& verdicts) {
  if (dep.spec.mix != Mix::StreamDownloads) return;
  auto s = stream_totals(dep);
  verdicts.check(s.evasions_caught == source.expected_evasions,
                 "evasions caught " + std::to_string(s.evasions_caught) + " != planted " +
                     std::to_string(source.expected_evasions));
  verdicts.check(s.flows_killed == source.expected_kills,
                 "flows killed " + std::to_string(s.flows_killed) + " != planted " +
                     std::to_string(source.expected_kills));
}

void add_rollout(const RolloutResult& rollout, Verdicts& verdicts) {
  verdicts.attempted += rollout.attempted;
  verdicts.failed += rollout.failed;
  if (rollout.failed)
    verdicts.errors.push_back(std::to_string(rollout.failed) +
                              " clients not at the new config version after a rollout");
}

struct Setup {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Source> source;
  std::vector<double> seconds;
};

/// Builds the deployment and its traffic `times` times (keeping the
/// last), timing each build.
Setup set_up(const WorkloadSpec& spec, std::uint64_t seed, int times) {
  Setup setup;
  for (int i = 0; i < times; ++i) {
    setup.source.reset();
    setup.deployment.reset();
    std::int64_t start = now_ns();
    setup.deployment = std::make_unique<Deployment>(spec, seed);
    setup.source = make_source(spec, seed, setup.deployment->rules);
    setup.seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return setup;
}

// ---- Untraced run: end-to-end metrics ----------------------------------------

struct ClosedSamples {
  std::vector<double> pps, goodput_mbps, client_us, gateway_us;
};

/// Cuts the closed-loop rounds into samples of at least kSampleNs.
ClosedSamples closed_samples(const std::vector<RoundTiming>& rounds) {
  ClosedSamples out;
  RoundTiming acc;
  for (const RoundTiming& r : rounds) {
    acc.wall_ns += r.wall_ns;
    acc.client_ns += r.client_ns;
    acc.gateway_ns += r.gateway_ns;
    acc.delivered += r.delivered;
    acc.payload_bytes += r.payload_bytes;
    if (acc.wall_ns < kSampleNs || acc.delivered == 0) continue;
    double secs = static_cast<double>(acc.wall_ns) / 1e9;
    double delivered = static_cast<double>(acc.delivered);
    out.pps.push_back(delivered / secs);
    out.goodput_mbps.push_back(static_cast<double>(acc.payload_bytes) * 8 / 1e6 / secs);
    out.client_us.push_back(static_cast<double>(acc.client_ns) / 1e3 / delivered);
    out.gateway_us.push_back(static_cast<double>(acc.gateway_ns) / 1e3 / delivered);
    acc = {};
  }
  return out;
}

/// The closed-loop metrics at the fast end of the samples. Other tenants
/// of a shared host only ever add time (up to 1.75x, in bursts of
/// milliseconds to tens of seconds), and on a busy host the fast
/// stretches add up to as little as 1% of a run: over ten runs of the
/// same code the median sample spread by 25-30%, the 0.5% fast end by
/// 5-10%. So a rate is the (1 - kFastQuantile) quantile and a cost the
/// kFastQuantile quantile, each over its own samples (a 45 s run has
/// ~100 samples beyond it).
struct ClosedLoopMetrics {
  double pps, goodput_mbps, client_us, gateway_us;
};
ClosedLoopMetrics closed_loop_metrics(const ClosedSamples& s) {
  return {percentile(s.pps, 1 - kFastQuantile), percentile(s.goodput_mbps, 1 - kFastQuantile),
          percentile(s.client_us, kFastQuantile), percentile(s.gateway_us, kFastQuantile)};
}

/// The `q` quantile of each run of `window` consecutive values (a short
/// last run is dropped unless it is the only one).
std::vector<double> window_quantiles(const std::vector<double>& values, std::size_t window,
                                     double q) {
  std::vector<double> out;
  for (std::size_t i = 0; i + window <= values.size(); i += window)
    out.push_back(percentile({values.begin() + static_cast<std::ptrdiff_t>(i),
                              values.begin() + static_cast<std::ptrdiff_t>(i + window)},
                             q));
  if (out.empty() && !values.empty()) out.push_back(percentile(values, q));
  return out;
}

/// Prints a sample distribution's quantiles, for judging a run by eye.
void print_spread(const char* name, const std::vector<double>& v) {
  std::printf("    %-20s p5 %.4g  p25 %.4g  p50 %.4g  p75 %.4g  p95 %.4g\n", name,
              percentile(v, 0.05), percentile(v, 0.25), percentile(v, 0.5),
              percentile(v, 0.75), percentile(v, 0.95));
}

int run_end_to_end(const Options& opt, const WorkloadSpec& spec) {
  Provenance prov;
  Setup setup = set_up(spec, opt.seed, kSetups);
  Deployment& dep = *setup.deployment;
  Driver driver(dep, *setup.source);
  Verdicts verdicts;
  Rng open_rng(opt.seed ^ 0x0be2100b5eedULL);

  verdicts.add(driver.run_closed(opt.seconds * kWarmupShare), "warm-up");
  prov.sample_threads();
  // The host's speed drifts over seconds (co-tenants share its caches),
  // so the run is cut into many short epochs, each a closed-loop slice,
  // an open-loop slice and a share of the config rollout. Closed-loop
  // metrics come from samples over all slices (closed_loop_metrics);
  // latency and rollout medians from windows over the whole run.
  Tally closed, open_total;
  std::vector<double> latency_us;
  RolloutResult rollout;
  std::vector<RoundTiming> rounds;
  std::uint64_t not_sent = 0, open_exchanges = 0;
  for (int e = 0; e < kEpochs; ++e) {
    closed += driver.run_closed(opt.seconds * kClosedShare / kEpochs, nullptr, nullptr, &rounds);
    OpenLoopResult open = driver.run_open(opt.seconds * kOpenShare / kEpochs, open_rng);
    open_total += open.tally;
    latency_us.insert(latency_us.end(), open.latency_us.begin(), open.latency_us.end());
    open_exchanges += open.latency_us.size();
    not_sent += open.not_sent;
    prov.sample_threads();
    std::size_t versions = spec.rollout_versions;
    run_rollout(dep, versions * static_cast<std::size_t>(e + 1) / kEpochs -
                         versions * static_cast<std::size_t>(e) / kEpochs,
                rollout, nullptr);
  }
  verdicts.add(closed, "closed loop");
  verdicts.add(open_total, "open loop");
  verdicts.check(not_sent == 0, std::to_string(not_sent) + " open-loop exchanges never sent");
  check_stream(dep, *setup.source, verdicts);
  add_rollout(rollout, verdicts);

  std::printf("perfbench %s seed=%llu seconds=%g trace=0\n", spec.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds);
  prov.print(dep);
  const ClosedSamples closed_s = closed_samples(rounds);
  const ClosedLoopMetrics fast = closed_loop_metrics(closed_s);
  char fastest_pct[32];
  std::snprintf(fastest_pct, sizeof fastest_pct, "fastest %g%% of ", kFastQuantile * 100);
  const std::string fastest = fastest_pct;
  const std::string closed_note = "closed loop, " + fastest +
                                  samples(closed_s.pps.size()) + " samples of >= " +
                                  std::to_string(kSampleNs / 1'000'000) + " ms, " +
                                  samples(closed.delivered) + " packets";
  const std::vector<double> latency_p50s = window_quantiles(latency_us, kLatencyWindow, 0.5);
  const std::vector<double> reconfig_p50s = window_quantiles(rollout.ms, kRolloutWindow, 0.5);
  const std::string open_note = "open loop at " + format_number(spec.open_rate) +
                                " exchanges/s, " + fastest +
                                samples(latency_p50s.size()) + " windows of " +
                                std::to_string(kLatencyWindow) + " exchanges";
  const std::string reconfig_note = fastest + samples(reconfig_p50s.size()) +
                                    " windows of " + std::to_string(kRolloutWindow) +
                                    " client rollouts";
  std::vector<Metric> metrics = {
      {"throughput_pps", fast.pps, "1/s", closed_note},
      {"goodput_mbps", fast.goodput_mbps, "Mbit/s", closed_note},
      {"latency_p50_us", percentile(latency_p50s, kFastQuantile), "us", open_note},
      {"client_us_per_pkt", fast.client_us, "us", closed_note},
      {"gateway_us_per_pkt", fast.gateway_us, "us", closed_note},
      {"reconfig_p50_ms", percentile(reconfig_p50s, kFastQuantile), "ms", reconfig_note},
      {"setup_s", median(setup.seconds), "s", "median of " + samples(setup.seconds.size()) + " set-ups"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "max resident set"},
  };
  print_metrics(metrics);
  // Printed but kept out of the result: run to run, the tails swing by
  // more than the largest bound a gated metric may have on a shared host.
  std::printf("  not gated:\n");
  print_metrics({
      {"latency_p99_us", percentile(latency_us, 0.99), "us", samples(open_exchanges) + " exchanges"},
      {"reconfig_p99_ms", percentile(rollout.ms, 0.99), "ms", samples(rollout.ms.size())},
      {"fail_ratio",
       ratio(static_cast<double>(verdicts.failed), static_cast<double>(verdicts.attempted)),
       "1", std::to_string(verdicts.failed) + "/" + std::to_string(verdicts.attempted) +
                " operations (the result's failed/attempted)"},
  });
  std::printf("  closed-loop samples:\n");
  print_spread("throughput_pps", closed_s.pps);
  print_spread("client_us_per_pkt", closed_s.client_us);
  print_spread("gateway_us_per_pkt", closed_s.gateway_us);
  std::printf("  windows:\n");
  print_spread("latency_p50_us", latency_p50s);
  print_spread("reconfig_p50_ms", reconfig_p50s);
  for (const std::string& e : verdicts.errors) std::printf("VERDICT ERROR: %s\n", e.c_str());
  print_result(verdicts.correct(), verdicts.attempted, verdicts.failed, metrics);
  return verdicts.correct() ? 0 : 1;
}

// ---- Traced run: per-layer metrics --------------------------------------------

struct SpanSums {
  std::int64_t round = 0, egress = 0, open = 0, seal = 0, ingress = 0;
};

SpanSums captured_sums(const Capture& capture) {
  SpanSums s;
  for (const CapturedRound& r : capture.rounds) {
    s.round += r.round_ns;
    s.open += r.open_ns;
    s.seal += r.seal_ns;
    for (const CapturedCall& c : r.egress) s.egress += c.ns;
    for (const CapturedCall& c : r.ingress) s.ingress += c.ns;
  }
  return s;
}

/// Prints one enclosing span's attributed layer self times and the
/// unattributed remainder. A span whose work runs on `lanes` threads has
/// lanes x its wall time of processor time to attribute. Returns false
/// when a self time is negative or the parts exceed that budget.
bool print_attribution(const char* span, std::int64_t total, std::size_t lanes,
                       const std::vector<std::pair<const char*, std::int64_t>>& parts) {
  std::int64_t attributed = 0;
  bool ok = true;
  std::printf("  %-15s %10.1f us", span, static_cast<double>(total) / 1e3);
  for (const auto& [name, ns] : parts) {
    attributed += ns;
    ok = ok && ns >= 0;
    std::printf("  %s %.1f%%", name, 100.0 * ratio(static_cast<double>(ns), static_cast<double>(total)));
  }
  std::int64_t budget = total * static_cast<std::int64_t>(lanes);
  ok = ok && attributed <= budget;
  std::printf("  unattributed %.1f%%%s%s\n",
              100.0 * ratio(static_cast<double>(total - attributed), static_cast<double>(total)),
              lanes > 1 ? " (lanes run in parallel: budget " : "",
              lanes > 1 ? (std::to_string(lanes) + "x wall)").c_str() : "");
  return ok;
}

int run_traced(const Options& opt, const WorkloadSpec& spec) {
  Provenance prov;
  Tracer tracer;
  Setup setup = set_up(spec, opt.seed, 1);
  Deployment& dep = *setup.deployment;
  Source& source = *setup.source;
  for (const auto& [start, end] : dep.handshakes)
    tracer.add("vpn.handshake", start, end, -1, 0);
  Driver driver(dep, source);
  Verdicts verdicts;
  Rng open_rng(opt.seed ^ 0x0be2100b5eedULL);

  verdicts.add(driver.run_closed(opt.seconds * kWarmupShare), "warm-up");
  Tally baseline = driver.run_closed(opt.seconds * kBaselineShare);
  verdicts.add(baseline, "untraced closed loop");
  prov.sample_threads();

  auto& vpn = dep.server.vpn();
  vpn.reset_lane_stats();
  auto enclave_transitions = [&dep] {
    std::uint64_t n = 0;
    for (const auto& rig : dep.clients)
      n += rig->client.enclave().transitions().ecalls + rig->client.enclave().transitions().ocalls;
    return n;
  };
  const std::uint64_t transitions_before = enclave_transitions();
  std::uint64_t allocs_before = allocations();
  LayerReplay layers(dep);
  Capture capture;
  capture.limit = kCaptureRounds;
  capture.on_round = [&layers](const CapturedRound& round) { layers.replay(round); };
  Tally traced = driver.run_closed(opt.seconds * kTracedClosedShare, &tracer, &capture);
  std::uint64_t allocs = allocations() - allocs_before;
  verdicts.add(traced, "traced closed loop");
  const std::uint64_t transitions = enclave_transitions() - transitions_before;
  std::vector<double> lane_frames;
  std::uint64_t pool_starved = 0;
  for (std::size_t l = 0; l < vpn.session_shard_count(); ++l) {
    lane_frames.push_back(static_cast<double>(vpn.lane_frames(l)));
    pool_starved += vpn.pool_starved(l);
  }
  double lane_mean = 0;
  for (double f : lane_frames) lane_mean += f / static_cast<double>(lane_frames.size());
  double lane_max = lane_frames.empty() ? 0 : *std::max_element(lane_frames.begin(), lane_frames.end());

  OpenLoopResult open = driver.run_open(opt.seconds * kTracedOpenShare, open_rng, &tracer);
  verdicts.add(open.tally, "traced open loop");
  verdicts.check(open.not_sent == 0,
                 std::to_string(open.not_sent) + " open-loop exchanges never sent");
  prov.sample_threads();
  check_stream(dep, source, verdicts);
  auto stream = stream_totals(dep);
  RolloutResult rollout;
  run_rollout(dep, spec.rollout_versions, rollout, &tracer);
  add_rollout(rollout, verdicts);

  ReplayResult replay = layers.finish(capture);
  double hot_swap_ms = replay_hot_swap_ms(dep, 9);
  double build_ms = replay_engine_build_ms(dep.rules, 5);
  verdicts.check(replay.verdict_mismatches == 0,
                 std::to_string(replay.verdict_mismatches) +
                     " replayed IDPS verdicts differ from the oracle");
  verdicts.check(replay.alerts == replay.oracle_alerts && replay.drops == replay.oracle_drops,
                 "replayed alert/drop counts differ from the reference engine");
  verdicts.check(replay.lane_replay_consistent,
                 "open_batch and open_batch_reference opened different packets");

  std::printf("perfbench %s seed=%llu seconds=%g trace=1\n", spec.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds);
  prov.print(dep);

  // Attribution over the captured rounds.
  const Attribution& a = replay.attribution;
  SpanSums s = captured_sums(capture);
  std::size_t enclave_lanes = spec.enclave_lanes, server_lanes = spec.server_lanes;
  std::printf("attribution over %zu captured rounds (live span wall time; layer self "
              "time from standalone replays):\n",
              capture.rounds.size());
  bool sane = true;
  sane &= print_attribution("round", s.round, 1,
                            {{"endbox.egress", s.egress}, {"vpn.open", s.open},
                             {"vpn.seal", s.seal}, {"endbox.ingress", s.ingress}});
  sane &= print_attribution("endbox.egress", s.egress, enclave_lanes,
                            {{"click(self)", a.egress_click - a.egress_idps},
                             {"idps", a.egress_idps}, {"crypto", a.egress_crypto}});
  sane &= print_attribution("vpn.open", s.open, server_lanes, {{"crypto", a.open_crypto}});
  sane &= print_attribution("vpn.seal", s.seal, server_lanes, {{"crypto", a.seal_crypto}});
  sane &= print_attribution("endbox.ingress", s.ingress, enclave_lanes,
                            {{"click(self)", a.ingress_click - a.ingress_idps},
                             {"idps", a.ingress_idps}, {"crypto", a.ingress_crypto}});
  std::printf("attribution sanity (self times >= 0, sum <= enclosing span): %s\n",
              sane ? "PASS" : "FAIL");

  double base_ns = ratio(static_cast<double>(baseline.round_ns), static_cast<double>(baseline.delivered));
  double traced_ns = ratio(static_cast<double>(traced.round_ns), static_cast<double>(traced.delivered));
  std::printf("tracing overhead: %.1f ns/pkt traced vs %.1f ns/pkt untraced on the main "
              "path (%+.1f%%; replay and capture excluded)\n",
              traced_ns, base_ns, 100.0 * (ratio(traced_ns, base_ns) - 1.0));
  std::printf("vpn.lane_speedup (open_batch_reference / open_batch on the same captured "
              "trains; the workload runs %zu server lane(s)):",
              server_lanes);
  for (std::size_t i = 0; i < replay.lane_speedup.size(); ++i)
    std::printf(" %zu lanes %.3f", kReplayLanes[i], replay.lane_speedup[i]);
  std::printf("\n");
  const double lane_speedup = replay.lane_speedup.size() > kReportedLaneIndex
                                  ? replay.lane_speedup[kReportedLaneIndex]
                                  : 0.0;

  double packets = static_cast<double>(traced.up_packets + traced.down_packets);
  std::vector<double> handshake_ms;
  for (const auto& [start, end] : dep.handshakes)
    handshake_ms.push_back(static_cast<double>(end - start) / 1e6);
  std::string captured = samples(replay.packets) + " captured packets";
  std::vector<Metric> metrics = {
      {"endbox.egress_us_per_pkt", ratio(static_cast<double>(traced.egress_ns) / 1e3, static_cast<double>(traced.up_packets)), "us", samples(traced.up_packets)},
      {"endbox.ingress_us_per_pkt", ratio(static_cast<double>(traced.ingress_ns) / 1e3, static_cast<double>(traced.down_packets)), "us", samples(traced.down_packets)},
      {"endbox.install_ms", median(rollout.install_ms), "ms", samples(rollout.install_ms.size())},
      {"sgx.transitions_per_pkt", ratio(static_cast<double>(transitions), packets), "count", "no SGX hardware: count only"},
      {"vpn.open_us_per_pkt", ratio(static_cast<double>(traced.open_ns) / 1e3, static_cast<double>(traced.up_frames)), "us", samples(traced.up_frames)},
      {"vpn.seal_us_per_pkt", ratio(static_cast<double>(traced.seal_ns) / 1e3, static_cast<double>(traced.down_packets)), "us", samples(traced.down_packets)},
      {"vpn.frames_per_pkt", ratio(static_cast<double>(traced.up_frames + traced.down_frames), packets), "ratio", ""},
      {"vpn.open_rejected", static_cast<double>(traced.open_rejected + open.tally.open_rejected), "count", ""},
      {"vpn.lane_speedup", lane_speedup, "ratio",
       "at 2 lanes, " + samples(capture.rounds.size()) + " trains x3"},
      {"vpn.lane_imbalance", ratio(lane_max, lane_mean), "ratio", "max/mean lane_frames"},
      {"vpn.pool_starved", static_cast<double>(pool_starved), "count", ""},
      {"vpn.handshake_ms", median(handshake_ms), "ms", samples(handshake_ms.size())},
      {"crypto.aes_ns_per_byte", replay.aes_ns_per_byte, "ns/B", captured},
      {"crypto.hmac_ns_per_byte", replay.hmac_ns_per_byte, "ns/B", "least-squares fit over frame sizes"},
      {"crypto.hmac_fixed_ns", replay.hmac_fixed_ns, "ns", "least-squares fit over frame sizes"},
      {"click.chain_us_per_pkt", replay.click_chain_us_per_pkt, "us", captured},
      {"click.hot_swap_ms", hot_swap_ms, "ms", "median of n=9"},
      {"idps.scan_us_per_pkt", replay.idps_scan_us_per_pkt, "us", captured},
      {"idps.confirmed_windows_per_pkt", replay.confirmed_windows_per_pkt, "count", captured},
      {"idps.prefiltered_share", replay.prefiltered_share, "ratio", "packets cleared by tier 1"},
      {"idps.stream_us_per_chunk", replay.stream_us_per_chunk, "us", captured},
      {"idps.build_ms", build_ms, "ms", "median of n=5"},
      {"idps.fallback_scans", static_cast<double>(stream.fallback_scans), "count", "live enclaves"},
      {"idps.alerts", static_cast<double>(replay.alerts), "count", "oracle " + std::to_string(replay.oracle_alerts)},
      {"idps.drops", static_cast<double>(replay.drops), "count", "oracle " + std::to_string(replay.oracle_drops)},
      {"elements.reassembly_us_per_seg", replay.reassembly_us_per_seg, "us", captured},
      {"elements.flows_tracked_peak", static_cast<double>(driver.flows_tracked_peak()), "count", "live enclaves"},
      {"elements.segments_parked", static_cast<double>(stream.segments_parked), "count", "live enclaves"},
      {"elements.bytes_buffered_peak", static_cast<double>(stream.bytes_buffered_peak), "B", "live enclaves"},
      {"elements.flows_rejected_full", static_cast<double>(stream.flows_rejected_full), "count", "live enclaves"},
      {"elements.evasions_caught", static_cast<double>(stream.evasions_caught), "count", "planted " + std::to_string(source.expected_evasions)},
      {"net.allocs_per_pkt", ratio(static_cast<double>(allocs), packets), "count", "inside layer calls"},
      {"driver.gen_lag_p99_us", percentile(open.lag_us, 0.99), "us", samples(open.lag_us.size())},
      {"driver.backlog_max", static_cast<double>(open.backlog_max), "count", ""},
  };
  print_metrics(metrics);
  for (const std::string& e : verdicts.errors) std::printf("VERDICT ERROR: %s\n", e.c_str());
  if (!opt.spans_out.empty() && !tracer.write(opt.spans_out))
    std::printf("WARNING: could not write spans to %s\n", opt.spans_out.c_str());
  else if (!opt.spans_out.empty())
    std::printf("spans: %zu written to %s (%llu more recorded past the buffer, not kept)\n",
                tracer.spans().size(), opt.spans_out.c_str(),
                static_cast<unsigned long long>(tracer.dropped()));
  print_result(verdicts.correct(), verdicts.attempted, verdicts.failed, metrics);
  return verdicts.correct() ? 0 : 1;
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--spans-out") {
      opt.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>]\nworkloads:");
    for (const WorkloadSpec& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  try {
    return opt.trace ? run_traced(opt, *spec) : run_end_to_end(opt, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

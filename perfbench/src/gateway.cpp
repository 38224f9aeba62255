// The gateway workloads: cbr-tcp and fr-small-tcp over loopback TCP
// (net::Server -> benchmark downstream wrapper -> net::SocketDownstream
// -> net::SinkServer), and sv-host through aon::Server::run_load.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "checks.hpp"
#include "downstream.hpp"
#include "tcp_load.hpp"
#include "workloads.hpp"
#include "xaon/aon/server.hpp"
#include "xaon/net/downstream.hpp"
#include "xaon/net/server.hpp"

namespace perfbench {

namespace {

using xaon::aon::UseCase;

/// The paper's dual processor: two gateway workers.
constexpr std::size_t kWorkers = 2;

struct TcpWorkload {
  UseCase use_case;
  std::vector<Input> (*make_inputs)(std::uint64_t, std::size_t);
  std::size_t input_count;
  /// In-flight requests per closed-loop connection; 1 is lock-step,
  /// more pipelines over keep-alive.
  std::vector<std::size_t> depths;
  /// The open-loop offered rate: a fixed share of the saturated rate
  /// measured at seed 1 (README), never derived from the run.
  double open_rate_per_s;
  std::size_t open_connections;
};

// Inputs per workload are a multiple of the closed-loop connection
// count, so each connection owns an equal slice and together they make
// whole passes.
const TcpWorkload kCbrTcp{UseCase::kContentBasedRouting, make_cbr_inputs,
                          4096, {1, 1, 1, 1}, 10000, 4};
const TcpWorkload kFrSmallTcp{UseCase::kForwardRequest, make_fr_inputs,
                              1024, {1, 1, 4, 4}, 40000, 4};

/// One gateway instance with its downstream chain, started and stopped
/// around a sequence of load phases.
class TcpSession {
 public:
  TcpSession(const TcpWorkload& w, const std::vector<Input>& inputs, bool traced)
      : workload_(w), inputs_(inputs), traced_(traced) {}

  bool start(std::string* error) {
    if (!sink_.start(error)) return false;
    socket_downstream_ = std::make_unique<xaon::net::SocketDownstream>(sink_.port());
    recorder_ = std::make_unique<RecordingDownstream>(*socket_downstream_,
                                                      inputs_, traced_);
    xaon::net::ServerConfig config;
    config.use_case = workload_.use_case;
    config.workers = kWorkers;
    config.downstream = recorder_.get();
    server_ = std::make_unique<xaon::net::Server>(config);
    started_ns_ = now_ns();
    return server_->start(error);
  }

  std::uint16_t port() const { return server_->port(); }

  void add(const LoadResult& phase) {
    load_.sent += phase.sent;
    load_.responses += phase.responses;
    load_.ok += phase.ok;
    load_.bad += phase.bad;
    load_.lost += phase.lost;
    load_.expect_primary += phase.expect_primary;
    for (const std::string& f : phase.failures) load_.failures.push_back(f);
  }

  /// Stops the chain, checks both ends against the clients' counts and
  /// returns the gateway's stats.
  const xaon::net::ServerStats& finish(Report& report) {
    const xaon::net::ServerStats& stats = server_->stop();
    lifetime_s_ = static_cast<double>(now_ns() - started_ns_) * 1e-9;
    socket_downstream_->close_all();
    const RecordingDownstream::Totals fwd = recorder_->totals();
    const std::uint64_t sink_bytes = wait_for_sink(sink_, fwd.acked_bytes, 5000);
    sink_.stop();

    for (const std::string& f : load_.failures) report.fail_check(f);
    TcpTotals t;
    t.responses = load_.responses;
    t.expect_primary = load_.expect_primary;
    t.forwards_acked = fwd.acked;
    t.body_mismatches = fwd.body_mismatches;
    t.acked_bytes = fwd.acked_bytes;
    t.unacked_bytes = fwd.not_acked_bytes;
    if (fwd.not_acked > 0) {
      std::fprintf(stderr, "perfbench: %llu downstream send attempts failed and were retried\n",
                   static_cast<unsigned long long>(fwd.not_acked));
    }
    t.sink_bytes = sink_bytes;
    t.messages = stats.messages;
    t.s2xx = stats.status.s2xx;
    t.routed_primary = stats.routed_primary;
    t.failed = stats.failed;
    t.accepted = stats.metrics.net.accepted;
    t.closed = stats.metrics.net.closed;
    report.add_checks(check_tcp_totals(t));
    report.attempted += load_.sent;
    report.failed += load_.bad + load_.lost;
    return stats;
  }

  double lifetime_s() const { return lifetime_s_; }
  const RecordingDownstream& recorder() const { return *recorder_; }

 private:
  const TcpWorkload& workload_;
  const std::vector<Input>& inputs_;
  const bool traced_;
  xaon::net::SinkServer sink_;
  std::unique_ptr<xaon::net::SocketDownstream> socket_downstream_;
  std::unique_ptr<RecordingDownstream> recorder_;
  std::unique_ptr<xaon::net::Server> server_;
  LoadResult load_;
  std::uint64_t started_ns_ = 0;
  double lifetime_s_ = 0;
};

/// The closed loop is cut into this many equal windows and the median
/// window the host left calm is reported.
constexpr int kWindows = 50;
/// Latency windows hold about this many samples.
constexpr double kSamplesPerLatencyWindow = 2000;

/// Sequence-number bases keep message ids unique across phases.
constexpr std::uint64_t kSeqWarmup = 0;
constexpr std::uint64_t kSeqClosed = 100'000'000;
constexpr std::uint64_t kSeqOpen = 200'000'000;

ClosedLoopResult warm_up(TcpSession& s, std::vector<Input>& inputs,
                         const TcpWorkload& w) {
  ClosedLoopConfig c;
  c.depths = w.depths;
  c.max_rounds = 1;
  c.seq_base = kSeqWarmup;
  return run_closed_loop(s.port(), inputs, c);
}

void run_tcp(const TcpWorkload& w, const RunArgs& args, Report& report,
             Layers& layers) {
  std::vector<Input> inputs = w.make_inputs(args.seed, w.input_count);
  ClosedLoopConfig closed;
  closed.depths = w.depths;
  closed.seconds = args.seconds * 0.4;
  closed.record_spans = args.trace;
  closed.seq_base = kSeqClosed;
  closed.windows = kWindows;
  OpenLoopConfig open;
  open.rate_per_s = w.open_rate_per_s;
  open.seconds = args.seconds * 0.6;
  open.connections = w.open_connections;
  open.record_spans = args.trace;
  open.seq_base = kSeqOpen;
  open.windows = std::max(1, static_cast<int>(open.rate_per_s * open.seconds /
                                              kSamplesPerLatencyWindow));
  std::string error;

  if (!args.trace) {
    TcpSession s(w, inputs, false);
    if (!s.start(&error)) {
      report.fail_check("gateway start: " + error);
      return;
    }
    s.add(warm_up(s, inputs, w));
    const double setup_s = static_cast<double>(now_ns() - args.start_ns) * 1e-9;
    ClosedLoopResult c = run_closed_loop(s.port(), inputs, closed);
    s.add(c);
    OpenLoopResult o = run_open_loop(s.port(), inputs, open);
    s.add(o);
    s.finish(report);
    report.add("msgs_per_s", c.median_rate(), "msgs/s");
    report.add("latency_p50_us", windowed_latency(o, 0.5), "us");
    report.add("latency_p90_us", windowed_latency(o, 0.9), "us");
    report.add("setup_s", setup_s, "s");
    report.add("sweep_s", quantile(c.round_s, 0.5), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced: the closed loop on one gateway (its stats then cover only
  // saturated work), the layer pass, then the open loop on a fresh one.
  SpanLog spans;
  {
    TcpSession s(w, inputs, true);
    if (!s.start(&error)) {
      report.fail_check("gateway start: " + error);
      return;
    }
    s.add(warm_up(s, inputs, w));
    ClosedLoopResult c = run_closed_loop(s.port(), inputs, closed);
    s.add(c);
    const xaon::net::ServerStats& stats = s.finish(report);
    const double msgs = static_cast<double>(stats.messages);
    const xaon::util::MetricsSnapshot& m = stats.metrics;
    layers["load.traced_msgs_per_s"] = c.median_rate();
    layers["aon.route_cache_hits"] = static_cast<double>(m.route_cache.hits);
    layers["aon.route_cache_lookups"] = static_cast<double>(m.route_cache.lookups());
    layers["aon.route_cache_hit_rate"] = m.route_cache.hit_rate();
    for (std::size_t i = 0; i < m.workers.size() && i < kWorkers; ++i) {
      layers["aon.worker_busy_share.w" + std::to_string(i)] =
          m.workers[i].busy_seconds / s.lifetime_s();
    }
    layers["util.scan_calls_per_msg"] = static_cast<double>(m.scan.calls) / msgs;
    layers["util.scan_bytes_per_msg"] = static_cast<double>(m.scan.bytes) / msgs;
    layers["net.read_eagain_per_msg"] = static_cast<double>(m.net.read_eagain) / msgs;
    layers["net.short_writes"] = static_cast<double>(m.net.short_writes);
    layers["net.bytes_in_per_msg"] = static_cast<double>(m.net.bytes_in) / msgs;
    layers["net.bytes_out_per_msg"] = static_cast<double>(m.net.bytes_out) / msgs;
    spans.append(c.spans);
    s.recorder().collect_spans(spans);
    spans.link_by_id("net.downstream_send", "client.request");
    layers["net.client_rtt_us"] = spans.median_ns("client.request") * 1e-3;
    layers["net.downstream_send_ns"] = spans.median_ns("net.downstream_send");
  }
  measure_layers(w.use_case, inputs, spans, layers);
  layers["net.transport_overhead_us"] =
      layers["net.client_rtt_us"] - layers["aon.process_wire_ns"] * 1e-3;
  {
    TcpSession s(w, inputs, true);
    if (!s.start(&error)) {
      report.fail_check("gateway start: " + error);
      return;
    }
    s.add(warm_up(s, inputs, w));
    OpenLoopResult o = run_open_loop(s.port(), inputs, open);
    s.add(o);
    s.finish(report);
    layers["load.gen_lag_us"] = tail(o.lag_us);
  }
  dump_spans(args, spans);
}

}  // namespace

void run_cbr_tcp(const RunArgs& args, Report& report, Layers& layers) {
  run_tcp(kCbrTcp, args, report, layers);
}

void run_fr_small_tcp(const RunArgs& args, Report& report, Layers& layers) {
  run_tcp(kFrSmallTcp, args, report, layers);
}

void run_sv_host(const RunArgs& args, Report& report, Layers& layers) {
  const std::vector<Input> inputs = make_sv_inputs(args.seed, 2048);
  std::vector<std::string> wires;
  wires.reserve(inputs.size());
  for (const Input& in : inputs) wires.push_back(in.wire);
  std::uint64_t valid_per_pass = 0, violating_per_pass = 0;
  count_sv_labels(inputs, 1, &valid_per_pass, &violating_per_pass);

  xaon::aon::ServerConfig config;
  config.use_case = UseCase::kSchemaValidation;
  config.workers = kWorkers;
  xaon::aon::Server server(config);

  // One run_load call is one whole pass over the inputs: every input is
  // dispatched exactly once, so each call's expected verdicts are known.
  SvTotals totals;
  auto pass = [&]() {
    const xaon::aon::LoadResult r = server.run_load(wires, wires.size());
    totals.valid_dispatched += valid_per_pass;
    totals.violating_dispatched += violating_per_pass;
    totals.messages += r.messages;
    totals.routed_primary += r.routed_primary;
    totals.routed_error += r.routed_error;
    totals.failed += r.failed;
    report.attempted += wires.size();
    report.failed += r.failed + r.status_5xx;
    return r;
  };
  pass();  // warm-up
  const double setup_s = static_cast<double>(now_ns() - args.start_ns) * 1e-9;

  struct Call {
    double seconds;
    std::uint64_t messages;
    bool calm;
  };
  std::vector<Call> calls;
  double busy_s[kWorkers] = {0, 0};
  double drain_s = 0;
  xaon::util::scan::Counters scan;
  std::uint64_t scanned_messages = 0;
  const std::uint64_t t_end =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  while (now_ns() < t_end || calls.empty()) {
    const double steal0 = host_steal_seconds();
    const std::uint64_t t0 = now_ns();
    const xaon::aon::LoadResult r = pass();
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    calls.push_back(Call{secs, r.messages, calm(host_steal_seconds() - steal0, secs)});
    drain_s += r.seconds;
    for (std::size_t i = 0; i < r.metrics.workers.size() && i < kWorkers; ++i) {
      busy_s[i] += r.metrics.workers[i].busy_seconds;
    }
    scan.merge(r.metrics.scan);
    scanned_messages += r.messages;
  }
  report.add_checks(check_sv_totals(totals));
  // The calls the host left calm, unless fewer than kMinCalm were.
  std::size_t n_calm = 0;
  for (const Call& c : calls) n_calm += c.calm ? 1 : 0;
  const bool all = n_calm < kMinCalm;
  if (all) {
    std::fprintf(stderr, "perfbench: only %zu of %zu calls were calm; using all\n",
                 n_calm, calls.size());
  }
  std::vector<double> call_s;
  double total_s = 0;
  std::uint64_t messages = 0;
  for (const Call& c : calls) {
    if (!all && !c.calm) continue;
    call_s.push_back(c.seconds);
    total_s += c.seconds;
    messages += c.messages;
  }

  if (!args.trace) {
    std::vector<double> call_us;
    for (const double s : call_s) call_us.push_back(s * 1e6);
    report.add("msgs_per_s", static_cast<double>(messages) / total_s, "msgs/s");
    report.add("latency_p50_us", quantile(call_us, 0.5), "us");
    report.add("latency_p90_us", quantile(call_us, 0.9), "us");
    report.add("setup_s", setup_s, "s");
    report.add("sweep_s", quantile(call_s, 0.5), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  layers["load.traced_msgs_per_s"] = static_cast<double>(messages) / total_s;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    layers["aon.worker_busy_share.w" + std::to_string(i)] = busy_s[i] / drain_s;
  }
  layers["util.scan_calls_per_msg"] =
      static_cast<double>(scan.calls) / static_cast<double>(scanned_messages);
  layers["util.scan_bytes_per_msg"] =
      static_cast<double>(scan.bytes) / static_cast<double>(scanned_messages);
  SpanLog spans;
  measure_layers(UseCase::kSchemaValidation, inputs, spans, layers);
  dump_spans(args, spans);
}

}  // namespace perfbench

// Self-tests of the benchmark's output checks: each check must pass on
// a correct case and fail on a deliberately broken one.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "downstream.hpp"
#include "inputs.hpp"
#include "xaon/aon/capture.hpp"
#include "xaon/aon/server.hpp"
#include "xaon/net/downstream.hpp"
#include "xaon/uarch/platform.hpp"
#include "xaon/uarch/system.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

void route_flipped() {
  const std::vector<Input> inputs = make_cbr_inputs(7, 64);
  std::size_t primary = 0, other = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    (inputs[i].expect_primary ? primary : other) = i;
  }
  expect(check_response(inputs[primary], 200, "routed").empty() &&
             check_response(inputs[other], 200, "routed-error").empty(),
         "cbr: expected routes pass");
  Input flipped = inputs[primary];
  flipped.expect_primary = false;
  expect(!check_response(flipped, 200, "routed").empty(),
         "cbr: one expected route flipped fails the response check");
  expect(!check_response(inputs[primary], 503, "routed").empty(),
         "cbr: a non-200 response fails the response check");

  TcpTotals t;
  t.responses = t.messages = t.s2xx = t.forwards_acked = 100;
  t.expect_primary = t.routed_primary = 50;
  t.accepted = t.closed = 4;
  t.acked_bytes = t.sink_bytes = 12345;
  expect(check_tcp_totals(t).empty(), "tcp totals: consistent totals pass");
  TcpTotals flip = t;
  flip.expect_primary = 51;  // one quantity-1 message the program sent to error
  expect(!check_tcp_totals(flip).empty(),
         "tcp totals: one flipped route in routed_primary fails");
}

void violation_unlabelled() {
  std::vector<Input> inputs = make_sv_inputs(3, 128);
  std::vector<std::string> wires;
  for (const Input& in : inputs) wires.push_back(in.wire);
  xaon::aon::ServerConfig config;
  config.use_case = xaon::aon::UseCase::kSchemaValidation;
  config.workers = 2;
  xaon::aon::Server server(config);
  const xaon::aon::LoadResult r = server.run_load(wires, wires.size());

  SvTotals t;
  count_sv_labels(inputs, 1, &t.valid_dispatched, &t.violating_dispatched);
  t.messages = r.messages;
  t.routed_primary = r.routed_primary;
  t.routed_error = r.routed_error;
  t.failed = r.failed;
  expect(t.violating_dispatched > 0 && check_sv_totals(t).empty(),
         "sv: labels match the program's verdicts");

  for (Input& in : inputs) {
    if (in.shape.violation != Violation::kNone) {
      in.shape.violation = Violation::kNone;  // the label is lost
      break;
    }
  }
  count_sv_labels(inputs, 1, &t.valid_dispatched, &t.violating_dispatched);
  expect(!check_sv_totals(t).empty(), "sv: one violation unlabelled fails");
}

void replay_op_missing() {
  xaon::aon::CaptureConfig capture;
  capture.messages = 2;
  const xaon::uarch::Trace trace =
      xaon::aon::capture_use_case_trace(xaon::aon::UseCase::kForwardRequest, capture);
  const xaon::uarch::PlatformConfig platform = xaon::uarch::all_platforms().front();
  xaon::uarch::System a(platform), b(platform);
  const xaon::uarch::RunResult ra = a.run({&trace});
  const xaon::uarch::RunResult rb = b.run({&trace});
  expect(check_replay_ops("fr", ra.total.ops, trace.size(), 1).empty(),
         "sweep: Counters.ops equals the trace size");
  expect(!check_replay_ops("fr", ra.total.ops - 1, trace.size(), 1).empty(),
         "sweep: one op missing from the replay count fails");
  expect(diff_counters(ra.total, rb.total).empty(),
         "sweep: two fresh Systems count the same");
  xaon::uarch::Counters off = rb.total;
  ++off.l2_misses;
  expect(!diff_counters(ra.total, off).empty(),
         "sweep: a differing counter is reported");

  SweepFigures f;
  auto uc = [](const char* name, double pm_scale, double ht_scale) {
    UseCaseFigures u;
    u.name = name;
    u.p1CPm = {100, 1.0};
    u.p2CPm = {100 * pm_scale, 1.1};
    u.p1LPx = {80, 1.5};
    u.p2LPx = {80 * ht_scale, 1.8};
    u.p2PPx = {150, 1.6};
    return u;
  };
  f.use_cases = {uc("SV", 1.9, 1.05), uc("CBR", 1.8, 1.1), uc("FR", 1.5, 1.2)};
  f.loopback_1LPx.throughput = 9000;
  f.loopback_2PPx.throughput = 3000;
  f.endtoend_mbps = {900, 940};
  f.link_mbps = 1000;
  expect(check_paper_directions(f).empty(), "sweep: the paper's directions pass");
  SweepFigures bad = f;
  bad.use_cases[2].p2CPm.throughput = 195;  // FR now scales past SV on PM
  expect(!check_paper_directions(bad).empty(),
         "sweep: a reversed dual-core scaling fails");
  bad = f;
  bad.endtoend_mbps.push_back(1001);
  expect(!check_paper_directions(bad).empty(),
         "sweep: netperf above the link rate fails");
}

/// Hands the wire on one byte short: a byte lost between the wrapper
/// and the sink.
class DroppingDownstream final : public xaon::aon::Downstream {
 public:
  explicit DroppingDownstream(xaon::aon::Downstream& inner) : inner_(inner) {}
  xaon::aon::SendStatus send(std::string_view wire) override {
    return inner_.send(wire.substr(0, wire.size() - (dropped_++ == 0 ? 1 : 0)));
  }

 private:
  xaon::aon::Downstream& inner_;
  int dropped_ = 0;
};

TcpTotals forward_all(const std::vector<Input>& inputs, bool drop_one,
                      bool corrupt_one) {
  xaon::net::SinkServer sink;
  std::string error;
  if (!sink.start(&error)) {
    std::printf("FAIL  sink start: %s\n", error.c_str());
    ++g_failures;
    return {};
  }
  xaon::net::SocketDownstream socket(sink.port());
  DroppingDownstream dropping(socket);
  xaon::aon::Downstream& inner = drop_one ? static_cast<xaon::aon::Downstream&>(dropping)
                                          : socket;
  RecordingDownstream recorder(inner, inputs, false);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::string wire = inputs[i].wire;
    if (corrupt_one && i == 0) wire.back() ^= 1;
    recorder.send(wire);
  }
  socket.close_all();
  const RecordingDownstream::Totals fwd = recorder.totals();
  TcpTotals t;
  t.sink_bytes = wait_for_sink(sink, fwd.acked_bytes, 2000);
  sink.stop();
  t.acked_bytes = fwd.acked_bytes;
  t.forwards_acked = t.responses = t.messages = t.s2xx = fwd.acked;
  t.unacked_bytes = fwd.not_acked_bytes;
  t.body_mismatches = fwd.body_mismatches;
  return t;
}

void byte_dropped() {
  const std::vector<Input> inputs = make_fr_inputs(5, 32);
  expect(check_tcp_totals(forward_all(inputs, false, false)).empty(),
         "fr: wrapper and sink agree on the bytes forwarded");
  expect(!check_tcp_totals(forward_all(inputs, true, false)).empty(),
         "fr: one byte dropped between the wrapper and the sink fails");
  expect(!check_tcp_totals(forward_all(inputs, false, true)).empty(),
         "fr: a forwarded body that differs from the request fails");
}

}  // namespace

int main() {
  route_flipped();
  violation_unlabelled();
  replay_op_missing();
  byte_dropped();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}

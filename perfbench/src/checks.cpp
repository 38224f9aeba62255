#include "checks.hpp"

namespace perfbench {

namespace {

std::string u(std::uint64_t v) { return std::to_string(v); }

void expect_eq(std::vector<std::string>& out, const char* what,
               std::uint64_t got, std::uint64_t want) {
  if (got != want) out.push_back(std::string(what) + ": " + u(got) + " != " + u(want));
}

double scaling(const PlatformFigures& from, const PlatformFigures& to) {
  return from.throughput > 0 ? to.throughput / from.throughput : 0.0;
}

const UseCaseFigures* find(const SweepFigures& f, std::string_view name) {
  for (const UseCaseFigures& uc : f.use_cases) {
    if (uc.name == name) return &uc;
  }
  return nullptr;
}

}  // namespace

std::string check_response(const Input& input, int status,
                           std::string_view body) {
  const std::string_view want = input.expect_primary ? "routed" : "routed-error";
  if (status == 200 && body == want) return "";
  return "got " + std::to_string(status) + " '" +
         std::string(body.substr(0, 40)) + "', want 200 '" + std::string(want) +
         "' (first quantity " + u(input.shape.first_quantity) + ", violation " +
         std::string(violation_name(input.shape.violation)) + ")";
}

std::vector<std::string> check_tcp_totals(const TcpTotals& t) {
  std::vector<std::string> out;
  expect_eq(out, "server messages vs responses received", t.messages, t.responses);
  expect_eq(out, "status 2xx vs messages", t.s2xx, t.messages);
  expect_eq(out, "routed_primary vs quantity-1 messages sent", t.routed_primary,
            t.expect_primary);
  expect_eq(out, "server failed", t.failed, 0);
  expect_eq(out, "connections accepted vs closed", t.accepted, t.closed);
  expect_eq(out, "acknowledged forwards vs messages", t.forwards_acked, t.messages);
  expect_eq(out, "forwarded bodies changed", t.body_mismatches, 0);
  // Every acknowledged byte reached the sink; beyond those, the sink
  // may hold only parts of attempts that timed out and were retried.
  if (t.sink_bytes < t.acked_bytes ||
      t.sink_bytes > t.acked_bytes + t.unacked_bytes) {
    out.push_back("sink bytes " + u(t.sink_bytes) + " vs " + u(t.acked_bytes) +
                  " acknowledged to the wrapper (+ up to " + u(t.unacked_bytes) +
                  " from retried attempts)");
  }
  return out;
}

std::vector<std::string> check_sv_totals(const SvTotals& t) {
  std::vector<std::string> out;
  expect_eq(out, "messages vs dispatched", t.messages,
            t.valid_dispatched + t.violating_dispatched);
  expect_eq(out, "routed_primary vs valid dispatched", t.routed_primary,
            t.valid_dispatched);
  expect_eq(out, "routed_error vs violating dispatched", t.routed_error,
            t.violating_dispatched);
  expect_eq(out, "failed", t.failed, 0);
  return out;
}

void count_sv_labels(const std::vector<Input>& inputs, std::uint64_t rounds,
                     std::uint64_t* valid, std::uint64_t* violating) {
  std::uint64_t v = 0, bad = 0;
  for (const Input& in : inputs) {
    if (in.shape.violation == Violation::kNone) {
      ++v;
    } else {
      ++bad;
    }
  }
  *valid = v * rounds;
  *violating = bad * rounds;
}

std::string check_replay_ops(std::string_view what, std::uint64_t counted_ops,
                             std::uint64_t trace_ops, std::uint64_t replays) {
  if (counted_ops == trace_ops * replays) return "";
  return std::string(what) + ": Counters.ops " + u(counted_ops) + " != " +
         u(trace_ops) + " trace ops x " + u(replays) + " replays";
}

std::string diff_counters(const xaon::uarch::Counters& a,
                          const xaon::uarch::Counters& b) {
  std::string out;
#define PERFBENCH_FIELD(f) \
  if (a.f != b.f) out += std::string(out.empty() ? "" : ",") + #f;
  PERFBENCH_FIELD(clockticks)
  PERFBENCH_FIELD(busy_cycles)
  PERFBENCH_FIELD(inst_retired)
  PERFBENCH_FIELD(ops)
  PERFBENCH_FIELD(branch_retired)
  PERFBENCH_FIELD(branch_mispredicted)
  PERFBENCH_FIELD(l1d_accesses)
  PERFBENCH_FIELD(l1d_misses)
  PERFBENCH_FIELD(l1i_accesses)
  PERFBENCH_FIELD(l1i_misses)
  PERFBENCH_FIELD(l2_accesses)
  PERFBENCH_FIELD(l2_misses)
  PERFBENCH_FIELD(bus_transactions)
  PERFBENCH_FIELD(bus_wait_cycles)
  PERFBENCH_FIELD(coherence_invalidations)
  PERFBENCH_FIELD(prefetch_fills)
#undef PERFBENCH_FIELD
  return out;
}

std::vector<std::string> check_paper_directions(const SweepFigures& f) {
  std::vector<std::string> out;
  const UseCaseFigures* fr = find(f, "FR");
  const UseCaseFigures* sv = find(f, "SV");
  if (fr == nullptr || sv == nullptr || find(f, "CBR") == nullptr) {
    out.push_back("sweep is missing a use case");
    return out;
  }
  if (!(scaling(fr->p1CPm, fr->p2CPm) < scaling(sv->p1CPm, sv->p2CPm))) {
    out.push_back("dual-core PM scaling is not lower for FR than for SV");
  }
  if (!(scaling(sv->p1LPx, sv->p2LPx) < scaling(fr->p1LPx, fr->p2LPx))) {
    out.push_back("Hyper-Threading scaling is not lower for SV than for FR");
  }
  for (const UseCaseFigures& uc : f.use_cases) {
    const double s = scaling(uc.p1LPx, uc.p2PPx);
    if (!(s > 1.0 && s <= 2.0)) {
      out.push_back(uc.name + ": 1LPx->2PPx scaling " + std::to_string(s) +
                    " outside (1, 2]");
    }
    if (!(uc.p1LPx.cpi > uc.p1CPm.cpi)) {
      out.push_back(uc.name + ": Xeon CPI is not above Pentium M CPI");
    }
  }
  if (f.endtoend_mbps.empty()) out.push_back("no end-to-end netperf figures");
  for (const double mbps : f.endtoend_mbps) {
    if (!(mbps > 0 && mbps <= f.link_mbps)) {
      out.push_back("end-to-end netperf " + std::to_string(mbps) +
                    " Mbps exceeds the " + std::to_string(f.link_mbps) +
                    " Mbps link");
    }
  }
  if (!(f.loopback_2PPx.throughput < f.loopback_1LPx.throughput)) {
    out.push_back("loopback netperf does not fall from 1LPx to 2PPx");
  }
  return out;
}

}  // namespace perfbench

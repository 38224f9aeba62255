#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.hpp"
#include "xaon/uarch/counters.hpp"

/// \file checks.hpp
/// The output checks of every workload, as pure functions of what the
/// benchmark sent and what came back. Each returns the list of failed
/// conditions (empty = correct). They are kept free of I/O so the
/// self-tests can feed them broken cases.

namespace perfbench {

/// One response on a gateway connection: 200 with body "routed" when
/// the benchmark expects the primary route, "routed-error" otherwise.
/// Returns "" when the response is the expected one.
std::string check_response(const Input& input, int status,
                           std::string_view body);

/// Totals of a TCP gateway run, from both ends.
struct TcpTotals {
  // Counted by the benchmark.
  std::uint64_t responses = 0;     ///< responses the clients received
  std::uint64_t expect_primary = 0;  ///< of those, inputs expecting primary
  std::uint64_t forwards_acked = 0;  ///< sends the downstream acknowledged
  std::uint64_t body_mismatches = 0; ///< forwarded bodies != request bodies
  std::uint64_t acked_bytes = 0;     ///< bytes the wrapper saw acknowledged
  /// Bytes of send attempts that failed and were retried: a timed-out
  /// attempt may have written part of its wire before giving up.
  std::uint64_t unacked_bytes = 0;
  std::uint64_t sink_bytes = 0;      ///< bytes the sink received
  // Reported by the program (net::ServerStats).
  std::uint64_t messages = 0;
  std::uint64_t s2xx = 0;
  std::uint64_t routed_primary = 0;
  std::uint64_t failed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
};
std::vector<std::string> check_tcp_totals(const TcpTotals& t);

/// Totals of a host-mode SV run: the benchmark's labels against
/// aon::LoadResult.
struct SvTotals {
  std::uint64_t valid_dispatched = 0;     ///< from the benchmark's labels
  std::uint64_t violating_dispatched = 0;
  std::uint64_t messages = 0;  ///< LoadResult fields
  std::uint64_t routed_primary = 0;
  std::uint64_t routed_error = 0;
  std::uint64_t failed = 0;
};
std::vector<std::string> check_sv_totals(const SvTotals& t);

/// Valid / violating counts of `rounds` whole passes over `inputs`,
/// from the benchmark's own labels.
void count_sv_labels(const std::vector<Input>& inputs, std::uint64_t rounds,
                     std::uint64_t* valid, std::uint64_t* violating);

/// Counters.ops of a replay against the benchmark's own op count.
std::string check_replay_ops(std::string_view what, std::uint64_t counted_ops,
                             std::uint64_t trace_ops, std::uint64_t replays);

/// Names of the Counters fields that differ ("" when identical).
std::string diff_counters(const xaon::uarch::Counters& a,
                          const xaon::uarch::Counters& b);

/// The sweep's figures the paper's directions are checked on.
struct PlatformFigures {
  double throughput = 0;
  double cpi = 0;
};
struct UseCaseFigures {
  std::string name;  ///< FR / CBR / SV
  PlatformFigures p1CPm, p2CPm, p1LPx, p2LPx, p2PPx;
};
struct SweepFigures {
  std::vector<UseCaseFigures> use_cases;
  PlatformFigures loopback_1LPx, loopback_2PPx;
  std::vector<double> endtoend_mbps;  ///< every platform
  double link_mbps = 0;
};
std::vector<std::string> check_paper_directions(const SweepFigures& f);

}  // namespace perfbench

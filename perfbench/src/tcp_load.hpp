#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"

/// \file tcp_load.hpp
/// The benchmark's own HTTP/1.1 load over loopback TCP: a closed loop
/// (each connection waits for its responses before sending more) and an
/// open loop (requests leave on a fixed schedule, whatever the gateway
/// does). Responses are parsed here, not by the program, and each one
/// is checked against the verdict the benchmark expects.

namespace perfbench {

/// Splits a byte stream of HTTP responses into (status, body).
class ResponseReader {
 public:
  void append(const char* data, std::size_t n);
  /// True when a whole response is buffered; `body` stays valid until
  /// the next append(). A malformed head yields status -1.
  bool next(int* status, std::string_view* body);

 private:
  std::string buf_;
  std::size_t pos_ = 0;
};

/// What every phase reports back.
struct LoadResult {
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t ok = 0;            ///< responses that passed check_response
  std::uint64_t bad = 0;           ///< wrong responses
  std::uint64_t lost = 0;          ///< requests without a response
  std::uint64_t expect_primary = 0;  ///< responses whose input expects primary
  std::vector<std::string> failures;  ///< first few wrong responses
  SpanLog spans;                   ///< client.request spans (traced)
};

struct ClosedLoopConfig {
  /// Requests in flight per connection (1 = lock-step); one
  /// connection per entry, all driven by the calling thread.
  std::vector<std::size_t> depths;
  double seconds = 1;
  /// Stop after this many whole passes over the inputs (0 = by time).
  std::uint64_t max_rounds = 0;
  bool record_spans = false;
  std::uint64_t seq_base = 0;  ///< first message sequence number
  /// The measured time is cut into this many equal windows, and the ok
  /// responses counted per window.
  int windows = 1;
};

struct ClosedLoopResult : LoadResult {
  std::vector<double> window_counts;  ///< ok responses per window
  std::vector<std::size_t> usable;    ///< windows the host left calm
  double window_s = 0;                ///< length of one window
  std::vector<double> round_s;  ///< wall time of each whole pass

  /// Median over the usable windows of the ok responses per second. A
  /// median over windows keeps a burst of outside load in one window
  /// from moving it.
  double median_rate() const;
};

/// Connection c sends inputs c, c + n, c + 2n, ... (n = connection
/// count) in order, wrapping around, so together they make whole passes;
/// each sends its next batch once the previous batch's responses are in.
ClosedLoopResult run_closed_loop(std::uint16_t port, std::vector<Input>& inputs,
                                 const ClosedLoopConfig& config);

struct OpenLoopConfig {
  double rate_per_s = 1000;
  double seconds = 1;
  int windows = 1;  ///< latency is summarized per window of due times
  std::size_t connections = 4;
  bool record_spans = false;
  std::uint64_t seq_base = 0;
};

struct OpenLoopResult : LoadResult {
  std::uint64_t start_ns = 0;
  double window_s = 0;
  std::vector<std::size_t> usable;  ///< windows the host left calm
  std::vector<double> latency_us;  ///< from when each request was due
  std::vector<std::uint64_t> due_ns;  ///< due time of each latency sample
  std::vector<double> lag_us;      ///< how late each request left
};

/// One thread sends request i at start + i / rate on connection
/// i mod connections (pipelining behind earlier ones when needed), and
/// times each response from its due time.
OpenLoopResult run_open_loop(std::uint16_t port, std::vector<Input>& inputs,
                             const OpenLoopConfig& config);

/// Median over the usable windows of the open loop (by due time) of
/// each window's `q`-quantile latency.
double windowed_latency(const OpenLoopResult& r, double q);

}  // namespace perfbench

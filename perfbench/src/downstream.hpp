#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "xaon/aon/server.hpp"
#include "xaon/net/downstream.hpp"

/// \file downstream.hpp
/// The benchmark's `aon::Downstream`: wraps the real downstream the
/// gateway forwards to, counts the bytes acknowledged, checks that each
/// forwarded wire carries its request body unchanged, and (traced runs)
/// records a span per send keyed by the message id the wire carries.

namespace perfbench {

class RecordingDownstream final : public xaon::aon::Downstream {
 public:
  /// `inputs` maps the id header back to the body that was sent.
  RecordingDownstream(xaon::aon::Downstream& inner,
                      const std::vector<Input>& inputs, bool record_spans);
  ~RecordingDownstream() override;
  RecordingDownstream(const RecordingDownstream&) = delete;
  RecordingDownstream& operator=(const RecordingDownstream&) = delete;

  xaon::aon::SendStatus send(std::string_view wire) override;

  struct Totals {
    std::uint64_t acked = 0;            ///< sends the inner downstream acknowledged
    std::uint64_t acked_bytes = 0;
    std::uint64_t not_acked = 0;        ///< attempts that failed (the gateway retries)
    std::uint64_t not_acked_bytes = 0;  ///< their wire sizes: bytes that may be torn
    std::uint64_t body_mismatches = 0;
  };
  /// Sums every sending thread's counters (call after the gateway stops).
  Totals totals() const;
  /// Appends every sending thread's spans to `out`.
  void collect_spans(SpanLog& out) const;

 private:
  struct alignas(64) Slot {
    Totals totals;
    SpanLog spans;
  };
  Slot& my_slot();

  static constexpr std::size_t kMaxSlots = 16;
  xaon::aon::Downstream& inner_;
  const std::vector<Input>& inputs_;
  const bool record_spans_;
  const std::uint64_t instance_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::size_t> used_slots_{0};
};

/// Waits until `sink` has received `bytes` (the sink drains on its own
/// thread) or `timeout_ms` passes; returns the sink's final count.
std::uint64_t wait_for_sink(const xaon::net::SinkServer& sink,
                            std::uint64_t bytes, int timeout_ms);

}  // namespace perfbench

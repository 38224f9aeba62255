#include "downstream.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

namespace {

// Each wrapper gets a process-unique id, so a thread's cached slot can
// never be mistaken for a slot of a later wrapper at the same address.
std::atomic<std::uint64_t> g_next_instance{1};

struct ThreadSlot {
  std::uint64_t owner = 0;
  void* slot = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

RecordingDownstream::RecordingDownstream(xaon::aon::Downstream& inner,
                                         const std::vector<Input>& inputs,
                                         bool record_spans)
    : inner_(inner),
      inputs_(inputs),
      record_spans_(record_spans),
      instance_(g_next_instance.fetch_add(1)),
      slots_(new Slot[kMaxSlots]) {}

RecordingDownstream::~RecordingDownstream() = default;

RecordingDownstream::Slot& RecordingDownstream::my_slot() {
  if (t_slot.owner != instance_) {
    const std::size_t i = used_slots_.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxSlots) {
      std::fprintf(stderr, "perfbench: more sending threads than slots\n");
      std::abort();
    }
    t_slot.owner = instance_;
    t_slot.slot = &slots_[i];
    if (record_spans_) slots_[i].spans.reserve(1 << 18);
  }
  return *static_cast<Slot*>(t_slot.slot);
}

xaon::aon::SendStatus RecordingDownstream::send(std::string_view wire) {
  const std::uint64_t t0 = record_spans_ ? now_ns() : 0;
  const xaon::aon::SendStatus status = inner_.send(wire);
  const std::uint64_t t1 = record_spans_ ? now_ns() : 0;
  Slot& slot = my_slot();
  if (status == xaon::aon::SendStatus::kAck) {
    ++slot.totals.acked;
    slot.totals.acked_bytes += wire.size();
  } else {
    ++slot.totals.not_acked;
    slot.totals.not_acked_bytes += wire.size();
  }
  std::uint64_t index = 0, seq = 0;
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (!parse_message_id(wire, &index, &seq) || index >= inputs_.size() ||
      head_end == std::string_view::npos ||
      wire.substr(head_end + 4) != inputs_[index].body()) {
    ++slot.totals.body_mismatches;
  }
  if (record_spans_) slot.spans.add("net.downstream_send", seq, -1, t0, t1);
  return status;
}

RecordingDownstream::Totals RecordingDownstream::totals() const {
  Totals sum;
  const std::size_t n = std::min(used_slots_.load(), kMaxSlots);
  for (std::size_t i = 0; i < n; ++i) {
    sum.acked += slots_[i].totals.acked;
    sum.acked_bytes += slots_[i].totals.acked_bytes;
    sum.not_acked += slots_[i].totals.not_acked;
    sum.not_acked_bytes += slots_[i].totals.not_acked_bytes;
    sum.body_mismatches += slots_[i].totals.body_mismatches;
  }
  return sum;
}

void RecordingDownstream::collect_spans(SpanLog& out) const {
  const std::size_t n = std::min(used_slots_.load(), kMaxSlots);
  for (std::size_t i = 0; i < n; ++i) out.append(slots_[i].spans);
}

std::uint64_t wait_for_sink(const xaon::net::SinkServer& sink,
                            std::uint64_t bytes, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (sink.bytes_received() < bytes &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return sink.bytes_received();
}

}  // namespace perfbench

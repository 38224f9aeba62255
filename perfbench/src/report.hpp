#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file report.hpp
/// Result plumbing shared by every workload: the metric list printed as
/// the run's last line, percentile helpers, and the in-memory span log
/// of the traced run.

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty set.
double quantile(std::vector<double>& v, double q);

/// The latency tail the sample supports: p99 when at least ten samples
/// lie beyond it, else the highest rank that still has ten beyond it.
/// Below 40 samples it falls back to the nearest-rank p99.
double tail(std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Collects the run's outcome and prints the one-line JSON result.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// A failed check: the run stays `correct` only while none is
  /// recorded. Each reason is printed to stderr; an empty reason (the
  /// checks' "passed") records nothing.
  void fail_check(std::string reason);
  void add_checks(const std::vector<std::string>& failures);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return check_failures_.empty(); }
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> check_failures_;
};

/// One timed interval recorded by the benchmark around a call into the
/// program. `id` groups the spans of one message; `parent` is the index
/// of the enclosing span in the same log, or -1.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Append-only span storage, one per recording thread; logs are merged
/// after the threads join and written out when the run ends.
class SpanLog {
 public:
  std::int64_t add(const char* name, std::uint64_t id, std::int64_t parent,
                   std::uint64_t start_ns, std::uint64_t end_ns) {
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void set_end(std::int64_t index, std::uint64_t end_ns) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
  void reserve(std::size_t n) { spans_.reserve(n); }
  void append(const SpanLog& other);
  /// Makes each parentless `child` span a child of the `parent` span
  /// with the same id (spans of one message recorded on two threads).
  void link_by_id(std::string_view child, std::string_view parent);

  /// Durations (ns) of every span called `name`.
  std::vector<double> durations(std::string_view name) const;
  /// Median duration (ns) of the spans called `name`; 0 if none.
  double median_ns(std::string_view name) const;

  /// Writes the spans as CSV (`name,id,parent,start_ns,end_ns`) and a
  /// per-name summary of median duration and median self time (the
  /// duration minus the time covered by child spans) beside it.
  bool write(const std::string& csv_path, const std::string& summary_path) const;

 private:
  std::vector<Span> spans_;
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// CPU time the hypervisor has stolen from this machine since boot, in
/// seconds summed over CPUs (/proc/stat); 0 where unavailable.
double host_steal_seconds();

/// True when the host stole at most 10% of the machine's CPU time over
/// an interval of `interval_s` in which `steal_s` was stolen.
bool calm(double steal_s, double interval_s);

/// Calm windows (or calls) a figure needs before it leaves out the
/// rest.
inline constexpr std::size_t kMinCalm = 5;

/// Host steal per window of a measured phase: [start, start + n * width)
/// in `n` equal windows. Call poll() often while the phase runs and
/// finish() at its end.
class StealWindows {
 public:
  StealWindows(std::uint64_t start_ns, double window_s, std::size_t windows);
  void poll(std::uint64_t now);
  void finish();
  /// Indices of the windows in which the host stole little CPU (see
  /// calm()); when fewer than kMinCalm were calm, the kMinCalm windows
  /// it stole least from, with a note on stderr.
  std::vector<std::size_t> usable() const;

 private:
  std::uint64_t start_ns_;
  double window_s_;
  std::vector<double> steal_;
  std::size_t next_ = 0;  ///< first window not yet closed
  double last_steal_;
};

}  // namespace perfbench

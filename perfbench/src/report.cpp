#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double tail(std::vector<double>& v) {
  if (v.size() < 40) return quantile(v, 0.99);
  std::sort(v.begin(), v.end());
  const std::size_t p99 = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(v.size()))) - 1;
  return v[std::min(p99, v.size() - 11)];
}

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::fail_check(std::string reason) {
  if (reason.empty()) return;
  std::fprintf(stderr, "perfbench: check failed: %s\n", reason.c_str());
  check_failures_.push_back(std::move(reason));
}

void Report::add_checks(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) fail_check(f);
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void SpanLog::append(const SpanLog& other) {
  const std::int64_t base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

void SpanLog::link_by_id(std::string_view child, std::string_view parent) {
  std::unordered_map<std::uint64_t, std::int64_t> parents;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (parent == spans_[i].name) {
      parents[spans_[i].id] = static_cast<std::int64_t>(i);
    }
  }
  for (Span& s : spans_) {
    if (s.parent >= 0 || child != s.name) continue;
    const auto it = parents.find(s.id);
    if (it != parents.end()) s.parent = it->second;
  }
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

double SpanLog::median_ns(std::string_view name) const {
  std::vector<double> d = durations(name);
  return quantile(d, 0.5);
}

bool SpanLog::write(const std::string& csv_path,
                    const std::string& summary_path) const {
  std::FILE* csv = std::fopen(csv_path.c_str(), "w");
  if (csv == nullptr) return false;
  std::fputs("name,id,parent,start_ns,end_ns\n", csv);
  for (const Span& s : spans_) {
    std::fprintf(csv, "%s,%llu,%lld,%llu,%llu\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(csv);

  // Self time: a span's duration minus the union of its children's
  // intervals, clipped to the span.
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(s.start_ns, spans_[c].start_ns);
      const std::uint64_t b = std::min(s.end_ns, spans_[c].end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, reach = 0;
    for (const auto& [a, b] : iv) {
      const std::uint64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    auto& entry = by_name[s.name];
    entry.first.push_back(dur);
    entry.second.push_back(dur - static_cast<double>(covered));
  }
  std::FILE* sum = std::fopen(summary_path.c_str(), "w");
  if (sum == nullptr) return false;
  std::fputs("{", sum);
  bool first = true;
  for (auto& [name, d] : by_name) {
    std::fprintf(sum, "%s\n  \"%s\": {\"count\": %zu, \"median_ns\": %.1f, "
                      "\"median_self_ns\": %.1f}",
                 first ? "" : ",", name.c_str(), d.first.size(),
                 quantile(d.first, 0.5), quantile(d.second, 0.5));
    first = false;
  }
  std::fputs("\n}\n", sum);
  std::fclose(sum);
  return true;
}

double host_steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz) : 0;
}

bool calm(double steal_s, double interval_s) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return steal_s <= 0.10 * interval_s * static_cast<double>(cpus > 0 ? cpus : 1);
}

StealWindows::StealWindows(std::uint64_t start_ns, double window_s,
                           std::size_t windows)
    : start_ns_(start_ns),
      window_s_(window_s),
      steal_(windows, 0.0),
      last_steal_(host_steal_seconds()) {}

void StealWindows::poll(std::uint64_t now) {
  if (next_ >= steal_.size()) return;
  const std::uint64_t boundary =
      start_ns_ + static_cast<std::uint64_t>(static_cast<double>(next_ + 1) * window_s_ * 1e9);
  if (now < boundary) return;
  const double s = host_steal_seconds();
  steal_[next_++] = s - last_steal_;
  last_steal_ = s;
}

void StealWindows::finish() {
  if (next_ < steal_.size()) steal_[next_++] = host_steal_seconds() - last_steal_;
}

std::vector<std::size_t> StealWindows::usable() const {
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < steal_.size(); ++w) {
    if (calm(steal_[w], window_s_)) out.push_back(w);
  }
  if (out.size() >= kMinCalm || out.size() == steal_.size()) return out;
  // A stormy run: the kMinCalm windows the host stole least from.
  std::fprintf(stderr, "perfbench: only %zu of %zu windows were calm; using the %zu "
                       "least stolen\n",
               out.size(), steal_.size(), std::min(kMinCalm, steal_.size()));
  out.clear();
  for (std::size_t w = 0; w < steal_.size(); ++w) out.push_back(w);
  std::stable_sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    return steal_[a] < steal_[b];
  });
  out.resize(std::min(kMinCalm, out.size()));
  std::sort(out.begin(), out.end());
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

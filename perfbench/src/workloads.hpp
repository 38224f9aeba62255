#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "xaon/aon/pipeline.hpp"

/// \file workloads.hpp
/// The four workloads and the helpers they share. Every workload fills
/// the Report: in an untraced run the end-to-end metrics, in a traced
/// run the per-layer metrics (`Layers`).

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t start_ns = 0;  ///< process start (main entry)
  std::string out_dir;         ///< where span dumps go
};

/// Per-layer values of a traced run, by metric name.
using Layers = std::map<std::string, double>;

void run_cbr_tcp(const RunArgs& args, Report& report, Layers& layers);
void run_fr_small_tcp(const RunArgs& args, Report& report, Layers& layers);
void run_sv_host(const RunArgs& args, Report& report, Layers& layers);
void run_paper_sweep(const RunArgs& args, Report& report, Layers& layers);

/// Single-threaded pass of `inputs` through each layer's public call on
/// `use_case`'s path, one span per call; fills the per-message layer
/// metrics (medians of the spans).
void measure_layers(xaon::aon::UseCase use_case, const std::vector<Input>& inputs,
                    SpanLog& spans, Layers& layers);

/// Heap allocations made so far by the calling thread (counted by the
/// benchmark's global operator new).
std::uint64_t thread_alloc_count();

/// Writes the traced run's spans under `args.out_dir`.
void dump_spans(const RunArgs& args, const SpanLog& spans);

}  // namespace perfbench

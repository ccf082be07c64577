// Shared plumbing of the bytes-to-verdict benchmark: clocks, percentiles,
// verdict lists with their digest, and the result each workload hands back
// to main.cpp for printing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::size_t workers = 1;  ///< min(nproc, 4)
};

/// Untimed passes after the reference pass, before any timed pass: the
/// first passes of a fresh process run up to a third slower while the heap
/// grows and caches fill, a cost a long-running lab service pays once.
constexpr double kWarmupSeconds = 2.0;

/// One printed metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports back. `attempted`/`failed` count commands of
/// every pass after the reference pass (warm-up, timed and traced); a
/// command fails when its verdict differs from the reference pass or a call
/// threw before it was checked.
struct WorkloadResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< every reason the run is not correct
  std::string digest;                 ///< verdict digest of the reference pass
  std::vector<std::pair<std::string, double>> sizes;  ///< manifest workload sizes
  std::vector<Metric> metrics;
};

/// One command's verdict: the key locates the command (stream, command
/// index; the supervised stream uses stream 0 and the step index), the value
/// is what RABIT decided — the alert rule (empty on a pass) and the outcome
/// (campaigns: pass, own or cross-stream alert; the stream: the step's
/// outcome).
struct Verdict {
  std::size_t stream = 0;
  std::size_t command = 0;
  std::string rule;
  std::string outcome;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

/// 64-bit FNV-1a over the verdict list, as 16 hex digits.
[[nodiscard]] std::string digest(const std::vector<Verdict>& verdicts);

/// Commands whose verdict differs between `reference` and `got` (both in
/// the same order, keyed by stream and command). A verdict present in one
/// list only counts once.
[[nodiscard]] std::size_t count_differences(const std::vector<Verdict>& reference,
                                            const std::vector<Verdict>& got);

[[nodiscard]] double wall_now_s();
/// CPU time of the whole process (every thread), in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The per-run estimate of an end-to-end metric: the fast decile of its
/// per-pass values, the 10th percentile of a cost or the 90th of a rate.
/// The host this benchmark is tuned on flips between a fast state and a
/// state up to 2x slower for tens of seconds at a time, when other tenants
/// contend for cache and memory bandwidth. A per-run median then measures
/// how long the host spent in each state; the fast decile measures the
/// program, as long as a tenth of a run's passes see the fast state.
[[nodiscard]] double fast_cost(std::vector<double> per_pass);
[[nodiscard]] double fast_rate(std::vector<double> per_pass);

/// Nearest-rank percentile (obs::nearest_rank) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Mean wall microseconds one span phase took per span (0 for spans that
/// never entered the phase).
[[nodiscard]] double phase_mean_us(const rabit::obs::Collector& spans, rabit::obs::Phase phase);

/// Milliseconds between two wall_now_s() readings.
[[nodiscard]] inline double ms(double t0, double t1) { return (t1 - t0) * 1e3; }

/// The three workloads. Each generates its inputs from opts.seed outside
/// every timed region, runs an untimed traced reference pass, then measures.
[[nodiscard]] WorkloadResult run_supervised_stream(const RunOptions& opts);
[[nodiscard]] WorkloadResult run_sharded_fleet(const RunOptions& opts);
[[nodiscard]] WorkloadResult run_contended_lab(const RunOptions& opts);

}  // namespace perfbench

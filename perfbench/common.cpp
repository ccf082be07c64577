#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <numeric>

#include "bench.hpp"
#include "obs/obs.hpp"

namespace perfbench {

std::string digest(const std::vector<Verdict>& verdicts) {
  std::uint64_t h = 14695981039346656037ULL;
  auto feed = [&h](const std::string& text) {
    for (unsigned char c : text) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (const Verdict& v : verdicts) {
    feed(std::to_string(v.stream) + "|" + std::to_string(v.command) + "|" + v.rule + "|" +
         v.outcome + "\n");
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::size_t count_differences(const std::vector<Verdict>& reference,
                              const std::vector<Verdict>& got) {
  using Key = std::pair<std::size_t, std::size_t>;
  std::map<Key, std::pair<std::string, std::string>> want;
  for (const Verdict& v : reference) want[{v.stream, v.command}] = {v.rule, v.outcome};
  std::size_t differing = 0;
  for (const Verdict& v : got) {
    auto it = want.find({v.stream, v.command});
    if (it == want.end()) {
      ++differing;
      continue;
    }
    if (it->second != std::make_pair(v.rule, v.outcome)) ++differing;
    want.erase(it);
  }
  return differing + want.size();
}

double wall_now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return rabit::obs::nearest_rank(samples, q);
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

double fast_cost(std::vector<double> per_pass) { return percentile(std::move(per_pass), 0.1); }

double fast_rate(std::vector<double> per_pass) { return percentile(std::move(per_pass), 0.9); }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double phase_mean_us(const rabit::obs::Collector& spans, rabit::obs::Phase phase) {
  std::vector<double> samples;
  samples.reserve(spans.spans().size());
  for (const rabit::obs::SpanRecord& span : spans.spans()) {
    double us = 0.0;
    for (const rabit::obs::PhaseSample& p : span.phases) {
      if (p.phase == phase) us += p.wall_us;
    }
    samples.push_back(us);
  }
  return mean(samples);
}

}  // namespace perfbench

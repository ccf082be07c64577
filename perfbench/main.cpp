// rabit_perfbench — the bytes-to-verdict benchmark program.
//
//   rabit_perfbench --workload <supervised_stream|sharded_fleet|contended_lab>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--pin <digest>] [--git-describe <text>]
//
// Prints a one-line run manifest, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see perfbench/README.md). --pin is the verdict digest the
// reference pass must reproduce (run.py passes the one pinned for the seed).
// A build that is not an unsanitized Release build prints the manifest and
// an empty metrics object, and exits 3: its timings are not valid.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "json/json.hpp"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

/// The -fsanitize flags this program was compiled with; empty when none.
std::string sanitizer_flags() {
  std::string flags;
  std::istringstream words(PERFBENCH_CXX_FLAGS);
  for (std::string word; words >> word;) {
    if (word.starts_with("-fsanitize")) flags += (flags.empty() ? "" : " ") + word;
  }
  if (flags.empty() && kSanitizerMacro) flags = "-fsanitize (detected)";
  return flags;
}

bool timings_valid() {
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0 && sanitizer_flags().empty() &&
         kAssertsOff;
}

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "rabit_perfbench: %s\n"
               "usage: rabit_perfbench --workload <supervised_stream|sharded_fleet|"
               "contended_lab> --seed <n> --seconds <s> --trace <0|1> [--pin <digest>] "
               "[--git-describe <text>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string pin;
  std::string git_describe = "unknown";
  RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes a non-negative integer");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      opts.trace = value[0] == '1';
    } else if (arg == "--pin") {
      pin = value;
    } else if (arg == "--git-describe") {
      git_describe = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  std::size_t nproc = cpus_available();
  opts.workers = nproc < 4 ? nproc : 4;

  WorkloadResult result;
  try {
    if (workload == "supervised_stream") {
      result = run_supervised_stream(opts);
    } else if (workload == "sharded_fleet") {
      result = run_sharded_fleet(opts);
    } else if (workload == "contended_lab") {
      result = run_contended_lab(opts);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rabit_perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  if (!pin.empty() && result.digest != pin) {
    result.problems.push_back("verdict digest " + result.digest + " differs from the pinned " +
                              pin);
    result.failed = result.attempted;
  }

  rabit::json::Object manifest;
  manifest["workload"] = workload;
  manifest["seed"] = static_cast<std::int64_t>(opts.seed);
  manifest["trace"] = opts.trace;
  manifest["seconds"] = opts.seconds;
  manifest["build_type"] = PERFBENCH_BUILD_TYPE;
  manifest["sanitize"] = sanitizer_flags();
  manifest["compiler"] = "g++ " __VERSION__;
  manifest["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  manifest["nproc"] = nproc;
  manifest["workers"] = opts.workers;
  manifest["git_describe"] = git_describe;
  manifest["timings_valid"] = timings_valid();
  rabit::json::Object sizes;
  for (const auto& [key, value] : result.sizes) sizes[key] = value;
  manifest["sizes"] = rabit::json::Value(std::move(sizes));
  manifest["verdict_digest"] = result.digest;
  manifest["pinned_digest"] = pin.empty() ? rabit::json::Value() : rabit::json::Value(pin);
  rabit::json::Array problems;
  for (const std::string& p : result.problems) problems.emplace_back(p);
  manifest["problems"] = rabit::json::Value(std::move(problems));
  rabit::json::Object manifest_line;
  manifest_line["manifest"] = rabit::json::Value(std::move(manifest));
  std::printf("%s\n", rabit::json::serialize(rabit::json::Value(std::move(manifest_line))).c_str());

  rabit::json::Object metrics;
  if (timings_valid()) {
    for (const Metric& m : result.metrics) {
      rabit::json::Object entry;
      entry["value"] = m.value;
      entry["unit"] = m.unit;
      metrics[m.name] = rabit::json::Value(std::move(entry));
    }
  }
  rabit::json::Object out;
  out["correct"] = result.problems.empty() && result.failed == 0;
  out["attempted"] = result.attempted;
  out["failed"] = result.failed;
  out["metrics"] = rabit::json::Value(std::move(metrics));
  std::printf("%s\n", rabit::json::serialize(rabit::json::Value(std::move(out))).c_str());
  std::fflush(stdout);
  return timings_valid() ? 0 : 3;
}

// visrt_perfbench: runs one workload of the repository benchmark and
// prints, as its last stdout line, the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1).  perfbench/run.py builds and drives it; see
// README.md.
//
//   visrt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --expected PATH [--out-dir DIR] [--commit SHA]
//                   [--tiny] [--corrupt-expected] [--record]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: visrt_perfbench --workload circuit-batch|ghost-stream "
               "--seed N --seconds S --trace 0|1 --expected PATH "
               "[--out-dir DIR] [--commit SHA] [--tiny] [--corrupt-expected] "
               "[--record]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") a.tiny = true;
    else if (arg == "--corrupt-expected") a.corrupt_expected = true;
    else if (arg == "--record") a.record = true;
    else if (!has_value) return false;
    else if (arg == "--workload") a.workload = argv[++i];
    else if (arg == "--seed") a.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(argv[++i]);
    else if (arg == "--trace") a.trace = std::string(argv[++i]) == "1";
    else if (arg == "--expected") a.expected_path = argv[++i];
    else if (arg == "--out-dir") a.out_dir = argv[++i];
    else if (arg == "--commit") a.commit = argv[++i];
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0 &&
         (a.record || !a.expected_path.empty());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  // Timings from an unoptimized build would be meaningless.
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "visrt_perfbench: refusing to run a non-optimized "
                       "build (%s)\n", PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  std::printf("# run record: {\"workload\":\"%s\",\"seed\":%llu,"
              "\"seconds\":%g,\"trace\":%d,\"tiny\":%d,\"nproc\":%u,"
              "\"compiler\":\"%s\",\"build_type\":\"%s\",\"commit\":\"%s\"}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, json_escape(args.commit).c_str());

  Outcome out;
  try {
    Expected expected;
    expected.load(args.expected_path, args.record, args.corrupt_expected);
    if (args.workload == "circuit-batch")
      out = run_circuit_batch(args, expected);
    else if (args.workload == "ghost-stream")
      out = run_ghost_stream(args, expected);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "visrt_perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : out.notes)
    std::printf("# %s\n", line.c_str());
  for (const std::string& line : out.failures)
    std::printf("# FAILED: %s\n", line.c_str());
  std::printf("# failure_ratio %.6g (%llu failed of %llu attempted)\n",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 1.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));

  // Per-layer metrics a workload does not exercise read 0.
  const auto& defs = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const MetricDef& m : defs) {
    auto it = out.metrics.find(m.name);
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!args.trace && it == out.metrics.end()) {
      std::fprintf(stderr, "visrt_perfbench: metric %s not measured\n",
                   m.name.c_str());
      return 1;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "visrt_perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    std::printf("# %-40s %.6g %s\n", m.name.c_str(), value, m.unit.c_str());
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}

// Shared pieces of the repository benchmark (see README.md): arguments,
// clocks and resource probes, statistics, the recorded expected outputs,
// the metric catalog and the span tracer of the traced run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "serve/session.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs: the self-test size (expected outputs are recorded for it
  /// too).
  bool tiny = false;
  /// Self-test hook: perturb every expected output so the checks must
  /// fail.
  bool corrupt_expected = false;
  /// Print the outputs the checks compare instead of checking them (how
  /// expected.txt is recorded).
  bool record = false;
  std::string expected_path;
  /// Directory (inside the checkout) for the traced run's span file.
  std::string out_dir = ".";
  std::string commit = "unknown";
};

std::uint64_t now_ns();
/// Process CPU seconds (user + system, all threads).
double cpu_seconds();
/// Resident high-water of the process (VmHWM) since the last
/// reset_peak_rss(), or since it started where that reset is unavailable.
double peak_rss_mb();
/// Restart the resident high-water at the current resident set (Linux
/// /proc/self/clear_refs).
void reset_peak_rss();

double median(std::vector<double> v);
/// Linear-interpolated quantile (q in [0,1]) of exact samples.
double quantile(std::vector<double> v, double q);
/// Quantile of a log-bucketed histogram, interpolated by rank inside the
/// bucket that holds it (obs::HistogramSnapshot::quantile returns the
/// bucket's upper bound, which would quantize a timing to 1/16 steps).
double histogram_quantile(const visrt::obs::HistogramSnapshot& snap,
                          double q);

struct Outcome;

/// Launches, timed wall and process CPU summed over the measured reps of
/// one kind.  Rates are taken over the sums, as if the reps were one long
/// run: the host's speed drifts in phases of seconds to minutes, and a
/// whole-run ratio averages them where a median over reps jumps between
/// them.
struct Totals {
  double launches = 0, timed_s = 0, cpu_s = 0;

  void add(double rep_launches, double rep_timed_s, double rep_cpu_s) {
    launches += rep_launches;
    timed_s += rep_timed_s;
    cpu_s += rep_cpu_s;
  }
  double rate() const { return timed_s > 0 ? launches / timed_s : 0; }
};

/// Outputs recorded from a known-good build (expected.txt): one
/// whitespace-separated `key value` pair per line, `#` comments.
class Expected {
public:
  /// `record`: print outputs as `record <key> <value>` notes instead of
  /// checking them.  `corrupt`: every recorded value reads wrong.
  void load(const std::string& path, bool record, bool corrupt);
  /// Compare one output with its recorded value.  A mismatch or a missing
  /// record returns false and adds the detail to out.failures; the caller
  /// counts the failed operation.  Record mode notes the value and passes.
  bool check(Outcome& out, const std::string& key,
             const std::string& actual) const;

private:
  std::map<std::string, std::string> values_;
  bool record_ = false;
  bool corrupt_ = false;
};

/// What one workload run produced: operation counts for the result's
/// attempted/failed, the metrics it measured and human-readable notes
/// (printed above the result line).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
  /// Latency samples of every measured untraced rep, pooled.
  std::vector<double> latency_us;

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// launches_per_s and cpu_us_per_launch from the untraced reps' totals.
  void report_throughput(const Totals& untraced);
  /// latency_p50_us / latency_p99_us over the pooled samples; `what` names
  /// the sample.
  void report_latency(const std::string& what);
};


struct MetricDef {
  std::string name;
  std::string unit;
};

/// The paper's five systems, as in bench/figure_common.h.
extern const char* const kSystems[5];

/// End-to-end metrics (printed with --trace 0) and per-layer metrics
/// (printed with --trace 1); BENCHMARK.json lists exactly these.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// The benchmark's spans: each has a name, the layer it is charged to,
/// start and end, and its parent (-1 for a root).  All spans of one run
/// share the run id.  Kept in memory, written out at the end.
///
/// Some children are derived rather than timed: a layer's total taken
/// from the program's existing instrumentation (profiler phases, latency
/// histogram sums) inside a span the benchmark timed.  They carry only a
/// duration and count toward their parent's self time like timed ones.
class Tracer {
public:
  explicit Tracer(std::uint64_t run_id) : run_id_(run_id) {}

  int begin(const std::string& name, const std::string& layer, int parent);
  void end(int id);
  /// A timed span whose interval the caller measured.
  int add(const std::string& name, const std::string& layer, int parent,
          std::uint64_t start_ns, std::uint64_t end_ns);
  /// A derived child with a known duration.
  int derived(const std::string& name, const std::string& layer, int parent,
              std::uint64_t duration_ns);

  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> layer_self_seconds() const;
  /// Summed duration of the spans of `layer` that have no parent.
  double root_seconds(const std::string& layer) const;
  void write_json(const std::string& path) const;

private:
  struct Span {
    std::string name;
    std::string layer;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    bool derived = false;
  };
  std::uint64_t run_id_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The layers self time is reported for: the repository's modules plus
/// `bench`, the benchmark's own code between the calls it times.
extern const char* const kLayers[9];

/// Fill the per-layer self-time metrics (`self_s.<layer>`, per rep) and
/// `trace.coverage` from a finished trace whose timed roots are charged
/// to layer `bench`.
void report_trace(const Tracer& tracer, double reps, Outcome& out);

/// What a rep is for.  The warm-up rep fills caches and finishes lazy
/// set-up; its outputs are checked but it is not measured.
enum class Pass { warmup, untraced, traced };

/// The prefix of a rep's note line.
inline const char* rep_label(Pass pass) {
  return pass == Pass::warmup ? "warm-up rep: "
         : pass == Pass::traced ? "traced rep: "
                                : "rep: ";
}

/// Runs a warm-up rep, then measured reps until the run's time budget is
/// spent, at least `min_reps` of them.  With tracing, every untraced rep
/// is followed by a traced one: the pairs sample the same host conditions,
/// so the untraced reps are a fair baseline for the tracing overhead.
/// Returns the resident high-water over the measured reps.
template <typename Rep>
double run_reps(const Args& args, int min_reps, Rep&& rep) {
  rep(Pass::warmup);
  reset_peak_rss();
  const std::uint64_t start = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  for (int n = 0; n < min_reps || elapsed() < args.seconds; ++n) {
    rep(Pass::untraced);
    if (args.trace) rep(Pass::traced);
  }
  return peak_rss_mb();
}

/// Serve-layer figures of one traced rep of a stream workload, read from
/// the session latency block and counters.
struct ServeSample {
  double retire_p50_us, retire_p99_us, retire_max_us, retire_calls,
      retired_launches, analysis_p50_ns, analysis_p99_ns, peak_launches,
      peak_ops, slots_reclaimed;
};
ServeSample serve_sample(const visrt::obs::HistogramSnapshot& retire,
                         const visrt::obs::HistogramSnapshot& analysis,
                         const visrt::serve::SessionCounters& c);
/// The `serve.*` session metrics: medians over the traced reps.
void report_serve_samples(const std::vector<ServeSample>& samples,
                          Outcome& out);
/// The step of the CpuRotation the workloads run under.
constexpr int kRotationMs = 50;

/// Moves the thread that constructs it round the CPUs it may run on, one
/// CPU every `period_ms`, until destroyed (which restores its CPU mask).
/// A single-threaded workload otherwise stays on one vCPU, and on a shared
/// host one vCPU can run at half the speed of another for minutes: the
/// rotation makes each run sample all of them.
class CpuRotation {
public:
  explicit CpuRotation(int period_ms);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

private:
  void loop(int period_ms);

  int tid_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Parse-only pass of fuzz::VisprogStreamParser over `bytes`: median
/// nanoseconds per statement over a few passes.
double parse_ns_per_statement(const std::string& bytes);

Outcome run_circuit_batch(const Args& args, const Expected& expected);
Outcome run_ghost_stream(const Args& args, const Expected& expected);

} // namespace perfbench

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "fuzz/serialize.h"

namespace perfbench {

const char* const kSystems[5] = {"neweqcr_dcr", "neweqcr_nodcr",
                                 "oldeqcr_dcr", "oldeqcr_nodcr",
                                 "paint_nodcr"};

const char* const kLayers[9] = {"fuzz", "serve", "runtime",
                                "visibility", "realm", "sim",
                                "obs", "apps", "bench"};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // KiB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double histogram_quantile(const visrt::obs::HistogramSnapshot& snap,
                          double q) {
  using visrt::obs::Histogram;
  if (snap.count == 0) return 0;
  const double target = q * static_cast<double>(snap.count);
  double before = 0;
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
    const double c = static_cast<double>(snap.buckets[i]);
    if (c == 0 || before + c < target) {
      before += c;
      continue;
    }
    const double lower =
        i == 0 ? 0.0 : static_cast<double>(Histogram::bucket_upper(i - 1) + 1);
    const double upper = static_cast<double>(Histogram::bucket_upper(i)) + 1;
    const double v = lower + (upper - lower) * ((target - before) / c);
    return std::clamp(v, static_cast<double>(snap.min),
                      static_cast<double>(snap.max));
  }
  return static_cast<double>(snap.max);
}

void Expected::load(const std::string& path, bool record, bool corrupt) {
  record_ = record;
  corrupt_ = corrupt;
  if (record) return;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected outputs " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string key, value;
    if (is >> key >> value) values_[key] = value;
  }
}

bool Expected::check(Outcome& out, const std::string& key,
                     const std::string& actual) const {
  if (record_) {
    out.note("record " + key + " " + actual);
    return true;
  }
  auto it = values_.find(key);
  if (it == values_.end()) {
    out.failures.push_back("no recorded value for " + key);
    return false;
  }
  const std::string want = corrupt_ ? it->second + "~" : it->second;
  if (actual == want) return true;
  out.failures.push_back(key + ": got " + actual + ", recorded " + want);
  return false;
}

void Outcome::report_throughput(const Totals& untraced) {
  metrics["launches_per_s"] = untraced.rate();
  metrics["cpu_us_per_launch"] =
      untraced.launches > 0 ? untraced.cpu_s * 1e6 / untraced.launches : 0;
  note("throughput: " + std::to_string(untraced.launches) + " launches in " +
       std::to_string(untraced.timed_s) + " s of measured untraced reps");
}

void Outcome::report_latency(const std::string& what) {
  metrics["latency_p50_us"] = quantile(latency_us, 0.50);
  metrics["latency_p99_us"] = quantile(latency_us, 0.99);
  note("latency: " + what + ", " + std::to_string(latency_us.size()) +
       " samples pooled over the measured untraced reps");
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"launches_per_s", "1/s"},   {"setup_s", "s"},
      {"latency_p50_us", "us"},    {"latency_p99_us", "us"},
      {"cpu_us_per_launch", "us"}, {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const char* sys : kSystems) {
      const std::string s = sys;
      d.push_back({"realm.instance_map_s." + s, "s"});
      d.push_back({"visibility.engine_s." + s, "s"});
      d.push_back({"sim.emit_s." + s, "s"});
      d.push_back({"sim.finish_s." + s, "s"});
      d.push_back({"runtime.launch_s." + s, "s"});
      d.push_back({"runtime.analysis_s." + s, "s"});
      d.push_back({"visibility.dep_edges." + s, "count"});
      d.push_back({"sim.messages." + s, "count"});
      d.push_back({"visibility.eqsets_created." + s, "count"});
      d.push_back({"sim.work_graph_ops." + s, "count"});
    }
    d.push_back({"fuzz.parse_ns_per_stmt", "ns"});
    d.push_back({"serve.retire_pause_p50_us", "us"});
    d.push_back({"serve.retire_pause_p99_us", "us"});
    d.push_back({"serve.retire_pause_max_us", "us"});
    d.push_back({"serve.retire_calls", "count"});
    d.push_back({"serve.retired_launches", "count"});
    d.push_back({"serve.launch_analysis_p50_ns", "ns"});
    d.push_back({"serve.launch_analysis_p99_ns", "ns"});
    d.push_back({"serve.peak_resident_launches", "count"});
    d.push_back({"serve.peak_resident_ops", "count"});
    d.push_back({"serve.eqset_slots_reclaimed", "count"});
    for (const char* layer : kLayers)
      d.push_back({std::string("self_s.") + layer, "s"});
    d.push_back({"trace.coverage", "ratio"});
    d.push_back({"trace.overhead_x", "ratio"});
    return d;
  }();
  return defs;
}

int Tracer::begin(const std::string& name, const std::string& layer,
                  int parent) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, layer, t, 0, parent, false});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int Tracer::add(const std::string& name, const std::string& layer,
                int parent, std::uint64_t start_ns, std::uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, layer, start_ns, end_ns, parent, false});
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::derived(const std::string& name, const std::string& layer,
                    int parent, std::uint64_t duration_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t start =
      spans_[static_cast<std::size_t>(parent)].start_ns;
  spans_.push_back(Span{name, layer, start, start + duration_ns, parent, true});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].layer] += self[i] * 1e-9;
  return out;
}

double Tracer::root_seconds(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const Span& s : spans_)
    if (s.parent < 0 && s.layer == layer)
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return total;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  os << "{\"run_id\":" << run_id_ << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"layer\":\"" << s.layer << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"derived\":" << (s.derived ? "true" : "false") << "}";
  }
  os << "\n]}\n";
}

void report_trace(const Tracer& tracer, double reps, Outcome& out) {
  const std::map<std::string, double> self = tracer.layer_self_seconds();
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    out.metrics[std::string("self_s.") + layer] =
        it == self.end() ? 0.0 : it->second / reps;
  }
  const double timed = tracer.root_seconds("bench");
  auto bench = self.find("bench");
  const double bench_self = bench == self.end() ? 0.0 : bench->second;
  out.metrics["trace.coverage"] = timed > 0 ? 1.0 - bench_self / timed : 0.0;
}

ServeSample serve_sample(const visrt::obs::HistogramSnapshot& retire,
                         const visrt::obs::HistogramSnapshot& analysis,
                         const visrt::serve::SessionCounters& c) {
  return ServeSample{histogram_quantile(retire, 0.50) * 1e-3,
                     histogram_quantile(retire, 0.99) * 1e-3,
                     static_cast<double>(retire.max) * 1e-3,
                     static_cast<double>(c.retire_calls),
                     static_cast<double>(c.retired_launches),
                     histogram_quantile(analysis, 0.50),
                     histogram_quantile(analysis, 0.99),
                     static_cast<double>(c.peak_resident_launches),
                     static_cast<double>(c.peak_resident_ops),
                     static_cast<double>(c.eqset_slots_reclaimed)};
}

void report_serve_samples(const std::vector<ServeSample>& samples,
                          Outcome& out) {
  auto med = [&](double ServeSample::*field) {
    std::vector<double> v;
    for (const ServeSample& s : samples) v.push_back(s.*field);
    return median(v);
  };
  out.metrics["serve.retire_pause_p50_us"] = med(&ServeSample::retire_p50_us);
  out.metrics["serve.retire_pause_p99_us"] = med(&ServeSample::retire_p99_us);
  out.metrics["serve.retire_pause_max_us"] = med(&ServeSample::retire_max_us);
  out.metrics["serve.retire_calls"] = med(&ServeSample::retire_calls);
  out.metrics["serve.retired_launches"] = med(&ServeSample::retired_launches);
  out.metrics["serve.launch_analysis_p50_ns"] =
      med(&ServeSample::analysis_p50_ns);
  out.metrics["serve.launch_analysis_p99_ns"] =
      med(&ServeSample::analysis_p99_ns);
  out.metrics["serve.peak_resident_launches"] = med(&ServeSample::peak_launches);
  out.metrics["serve.peak_resident_ops"] = med(&ServeSample::peak_ops);
  out.metrics["serve.eqset_slots_reclaimed"] =
      med(&ServeSample::slots_reclaimed);
}

CpuRotation::CpuRotation(int period_ms)
    : tid_(static_cast<int>(::gettid())) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(tid_, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  if (cpus_.size() > 1)
    thread_ = std::thread([this, period_ms] { loop(period_ms); });
}

CpuRotation::~CpuRotation() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) sched_setaffinity(tid_, sizeof set, &set);
}

void CpuRotation::loop(int period_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t i = 0;; i = (i + 1) % cpus_.size()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[i], &set);
    sched_setaffinity(tid_, sizeof set, &set);
    if (cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                     [this] { return stop_; }))
      return;
  }
}

double parse_ns_per_statement(const std::string& bytes) {
  std::vector<double> ns;
  for (int pass = 0; pass < 5; ++pass) {
    const std::uint64_t t0 = now_ns();
    visrt::fuzz::VisprogStreamParser parser;
    parser.feed(bytes);
    parser.finish();
    visrt::fuzz::VisprogStatement st;
    std::size_t n = 0;
    while (parser.next(st) ==
           visrt::fuzz::VisprogStreamParser::Status::Statement)
      ++n;
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(std::max<std::size_t>(n, 1)));
  }
  return median(ns);
}

} // namespace perfbench

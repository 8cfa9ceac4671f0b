// circuit-batch: the paper's engine comparison (Fig. 13 shape).  One rep
// runs the batch Runtime + apps::CircuitApp once for each of the five
// paper systems; the timed section of a rep is the five systems' run() +
// finish().  At 256 simulated nodes the instance map (realm) and the
// engines do most of the work here, and the serve/fuzz layers none.
#include <string>
#include <vector>

#include "apps/circuit.h"
#include "bench.h"

namespace perfbench {
namespace {

using visrt::Algorithm;

struct System {
  const char* label;
  Algorithm algorithm;
  bool dcr;
};

// The order and labels of kSystems (bench/figure_common.h's systems).
const System kSystemConfigs[5] = {
    {kSystems[0], Algorithm::RayCast, true},
    {kSystems[1], Algorithm::RayCast, false},
    {kSystems[2], Algorithm::Warnock, true},
    {kSystems[3], Algorithm::Warnock, false},
    {kSystems[4], Algorithm::Paint, false},
};

/// The workload seed picks one of this many circuit graphs, each with
/// recorded outputs in expected.txt.
constexpr std::uint64_t kGraphs = 16;

struct Counts {
  std::size_t launches, dep_edges, messages, eqsets_created, work_graph_ops;
};

struct SystemTimes {
  double instance_map_s = 0, engine_s = 0, emit_s = 0, finish_s = 0,
         launch_s = 0, analysis_s = 0;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Splits one traced CircuitApp::run() span into the layers the
/// profiler's per-phase wall seconds attribute (only their wall seconds
/// are used; the profiler's parallel/serial classification is not).
/// What the phases do not cover of the measured analysis wall stays with
/// runtime; run() wall outside the analysis sections stays with apps.
void split_run_span(const visrt::Runtime& rt, double analysis_wall_s,
                    Tracer& tracer, int run_span, SystemTimes& t) {
  const auto wall_ns = static_cast<std::uint64_t>(analysis_wall_s * 1e9);
  const visrt::obs::ProfileReport report = rt.profiler().report(wall_ns);
  std::uint64_t realm = 0, engine = 0, emit = 0;
  for (const visrt::obs::PhaseTotal& p : report.phases) {
    if (p.label == "runtime/apply_instances" ||
        p.label == "runtime/plan_copies")
      realm += p.wall_ns;
    else if (p.label == "runtime/emit_graph" ||
             p.label == "runtime/emit_commit")
      emit += p.wall_ns;
    else if (starts_with(p.label, "raycast/") ||
             starts_with(p.label, "warnock/") ||
             starts_with(p.label, "paint/"))
      engine += p.wall_ns;
  }
  const std::uint64_t attributed = realm + engine + emit;
  tracer.derived("instance map (profiler)", "realm", run_span, realm);
  tracer.derived("engine phases (profiler)", "visibility", run_span, engine);
  tracer.derived("work-graph emission (profiler)", "sim", run_span, emit);
  tracer.derived("other analysis (profiler)", "runtime", run_span,
                 wall_ns > attributed ? wall_ns - attributed : 0);
  t.instance_map_s = static_cast<double>(realm) * 1e-9;
  t.engine_s = static_cast<double>(engine) * 1e-9;
  t.emit_s = static_cast<double>(emit) * 1e-9;
}

} // namespace

Outcome run_circuit_batch(const Args& args, const Expected& expected) {
  const std::uint32_t nodes = args.tiny ? 8 : 256;
  const int iterations = args.tiny ? 2 : 5;
  const std::uint64_t graph = args.seed % kGraphs;
  const std::string size = args.tiny ? "tiny" : "full";

  Outcome out;
  Tracer tracer(now_ns());
  Totals untraced, traced_totals;
  std::vector<double> setups;
  std::vector<SystemTimes> traced_times[5];
  Counts counts[5] = {};
  // Per-launch analysis latency of the measured untraced reps, pooled.
  visrt::obs::Histogram launch_latency;

  auto rep = [&](Pass pass) {
    const bool traced = pass == Pass::traced;
    double setup_s = 0, timed_s = 0, cpu_s = 0;
    std::size_t launches = 0;
    visrt::obs::Histogram scratch_latency;
    for (int s = 0; s < 5; ++s) {
      const System& sys = kSystemConfigs[s];
      const std::uint64_t t0 = now_ns();
      visrt::RuntimeConfig rc;
      rc.algorithm = sys.algorithm;
      rc.dcr = sys.dcr;
      rc.track_values = false; // analysis only, as in the figure benches
      rc.machine.num_nodes = nodes;
      rc.analysis_threads = 1;
      rc.costs.task_element_ns = 6000; // bench/app_benches.h run_circuit
      rc.launch_latency =
          pass == Pass::untraced ? &launch_latency : &scratch_latency;
      rc.profile = traced;
      visrt::Runtime rt(rc);
      visrt::apps::CircuitConfig cc;
      cc.pieces = nodes;
      cc.nodes_per_piece = 200;
      cc.wires_per_piece = 300;
      cc.cross_fraction = 0.15;
      cc.iterations = iterations;
      cc.seed = graph;
      visrt::apps::CircuitApp app(rt, cc);
      const std::uint64_t t1 = now_ns();

      const double cpu0 = cpu_seconds();
      const int root =
          traced ? tracer.begin(std::string("circuit-batch ") + sys.label,
                                "bench", -1)
                 : -1;
      const int run_span =
          traced ? tracer.begin("CircuitApp::run", "apps", root) : -1;
      const std::uint64_t r0 = now_ns();
      app.run();
      const std::uint64_t r1 = now_ns();
      if (traced) tracer.end(run_span);
      const int finish_span =
          traced ? tracer.begin("Runtime::finish", "sim", root) : -1;
      const visrt::RunStats st = rt.finish();
      const std::uint64_t r2 = now_ns();
      if (traced) {
        tracer.end(finish_span);
        tracer.end(root);
      }
      cpu_s += cpu_seconds() - cpu0;
      setup_s += static_cast<double>(t1 - t0) * 1e-9;
      timed_s += static_cast<double>(r2 - r0) * 1e-9;
      launches += st.launches;

      if (traced) {
        SystemTimes t;
        split_run_span(rt, st.analysis_wall_s, tracer, run_span, t);
        t.launch_s = static_cast<double>(r1 - r0) * 1e-9;
        t.finish_s = static_cast<double>(r2 - r1) * 1e-9;
        t.analysis_s = st.analysis_wall_s;
        traced_times[s].push_back(t);
      }

      // Output check (outside the timed section): the counts are exact.
      counts[s] = Counts{st.launches, st.dep_edges, st.messages,
                         st.engine.total_eqsets_created,
                         rt.work_graph().size()};
      const std::string key = "circuit-batch." + size + "." +
                              std::to_string(graph) + "." + sys.label + ".";
      const Counts& c = counts[s];
      bool ok = expected.check(out, key + "launches",
                               std::to_string(c.launches));
      ok &= expected.check(out, key + "dep_edges", std::to_string(c.dep_edges));
      ok &= expected.check(out, key + "messages", std::to_string(c.messages));
      ok &= expected.check(out, key + "eqsets_created",
                           std::to_string(c.eqsets_created));
      ok &= expected.check(out, key + "work_graph_ops",
                           std::to_string(c.work_graph_ops));
      ++out.attempted;
      if (!ok) ++out.failed;
    }
    const double rate = static_cast<double>(launches) / timed_s;
    out.note(rep_label(pass) + std::to_string(launches) +
             " launches in " + std::to_string(timed_s) + " s, " +
             std::to_string(rate) + " launches/s, setup " +
             std::to_string(setup_s) + " s");
    if (pass == Pass::warmup) return;
    if (traced) {
      traced_totals.add(static_cast<double>(launches), timed_s, cpu_s);
      return;
    }
    untraced.add(static_cast<double>(launches), timed_s, cpu_s);
    setups.push_back(setup_s);
  };
  // A full-size rep takes 2-3 s.
  double peak_rss = 0;
  {
    CpuRotation rotation(kRotationMs);
    peak_rss = run_reps(args, 3, rep);
  }

  out.report_throughput(untraced);
  out.metrics["setup_s"] = median(setups);
  const visrt::obs::HistogramSnapshot lat = launch_latency.snapshot();
  out.metrics["latency_p50_us"] = histogram_quantile(lat, 0.50) * 1e-3;
  out.metrics["latency_p99_us"] = histogram_quantile(lat, 0.99) * 1e-3;
  out.note("latency: per-launch analysis (Runtime launch_latency tap), " +
           std::to_string(lat.count) +
           " samples pooled over the measured untraced reps");
  out.metrics["peak_rss_mb"] = peak_rss;

  if (args.trace) {
    for (int s = 0; s < 5; ++s) {
      const std::string sys = kSystems[s];
      auto med = [&](double SystemTimes::*field) {
        std::vector<double> v;
        for (const SystemTimes& t : traced_times[s]) v.push_back(t.*field);
        return median(v);
      };
      out.metrics["realm.instance_map_s." + sys] =
          med(&SystemTimes::instance_map_s);
      out.metrics["visibility.engine_s." + sys] = med(&SystemTimes::engine_s);
      out.metrics["sim.emit_s." + sys] = med(&SystemTimes::emit_s);
      out.metrics["sim.finish_s." + sys] = med(&SystemTimes::finish_s);
      out.metrics["runtime.launch_s." + sys] = med(&SystemTimes::launch_s);
      out.metrics["runtime.analysis_s." + sys] = med(&SystemTimes::analysis_s);
      out.metrics["visibility.dep_edges." + sys] =
          static_cast<double>(counts[s].dep_edges);
      out.metrics["sim.messages." + sys] =
          static_cast<double>(counts[s].messages);
      out.metrics["visibility.eqsets_created." + sys] =
          static_cast<double>(counts[s].eqsets_created);
      out.metrics["sim.work_graph_ops." + sys] =
          static_cast<double>(counts[s].work_graph_ops);
    }
    report_trace(tracer, static_cast<double>(traced_times[0].size()), out);
    out.metrics["trace.overhead_x"] = traced_totals.rate() / untraced.rate();
    tracer.write_json(args.out_dir + "/trace-circuit-batch.json");
  }
  return out;
}

} // namespace perfbench

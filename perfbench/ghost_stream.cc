// ghost-stream: one in-process serve::StreamSession fed the Fig. 5
// ghost-exchange stream (the bench/stream_sustained.cpp shape: 64
// pieces, 4 simulated nodes, `rw` + `red:sum` over two fields) with
// retirement and history collapsing on.  Each statement goes to its own
// timed feed().  Parse, session apply, work-graph push and
// replay-on-retire carry this load; the instance map is cheap at 4 nodes.
//
// The stream has no randomness: the workload seed does not affect it.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "fuzz/serialize.h"
#include "serve/session.h"

namespace perfbench {
namespace {

/// The figure-5 stream prologue at `pieces` primary pieces (as in
/// bench/stream_sustained.cpp): a tree of 10*pieces cells, a disjoint
/// primary partition, an aliased ghost partition straddling the
/// neighbours' edge cells, two fields.
std::string prologue(std::size_t pieces) {
  std::ostringstream os;
  os << "visprog 1\n"
     << "config nodes=4 dcr=0 tracing=0 subject=raycast\n"
     << "tuning occlusion=1 memoize=1 domwrites=1 kdfallback=0 paintbug=0\n"
     << "tree A " << 10 * pieces << "\n";
  os << "partition P parent=0";
  for (std::size_t p = 0; p < pieces; ++p)
    os << " [" << 10 * p << "," << 10 * p + 9 << "]";
  os << "\npartition G parent=0";
  for (std::size_t p = 0; p < pieces; ++p) {
    if (p == 0)
      os << " [10,11]";
    else if (p + 1 == pieces)
      os << " [" << 10 * p - 2 << "," << 10 * p - 1 << "]";
    else
      os << " [" << 10 * p - 2 << "," << 10 * p - 1 << "]+["
         << 10 * (p + 1) << "," << 10 * (p + 1) + 1 << "]";
  }
  os << "\nfield up tree=0 mod=11\nfield down tree=0 mod=11\n";
  return os.str();
}

/// Alternating ghost exchanges, one `end_iteration` after every second
/// exchange: `launches` launches in total.
std::vector<std::string> exchanges(std::size_t pieces, std::size_t launches) {
  std::vector<std::string> out;
  for (std::uint64_t salt = 0; salt * pieces < launches;) {
    out.push_back("index salt=" + std::to_string(salt) +
                  (salt % 2 == 0 ? " p0 f0 rw | p1 f1 red:sum\n"
                                 : " p0 f1 rw | p1 f0 red:sum\n"));
    if (++salt % 2 == 0) out.push_back("end_iteration\n");
  }
  return out;
}

visrt::serve::SessionOptions session_options() {
  visrt::serve::SessionOptions so; // retirement + history collapsing on
  so.track_values = false;         // analysis-only ingest
  so.analysis_threads = 1;
  return so;
}

/// Sums of the session's latency histograms: parse, launch analysis and
/// retire pauses, the parts of a feed() other layers own.
struct LatencySums {
  std::uint64_t parse, analysis, retire;
};

LatencySums sums(const visrt::serve::SessionLatency& l) {
  return {l.statement_parse.sum(), l.launch_analysis.sum(),
          l.retire_pause.sum()};
}

/// Derived children of a traced feed()/finish() span from the histogram
/// sums it added: parse is fuzz's VisprogStreamParser, launch analysis is
/// Runtime::launch, retire pauses are Runtime::retire.
void split_feed_span(Tracer& tracer, int span, const LatencySums& a,
                     const LatencySums& b) {
  if (b.parse > a.parse)
    tracer.derived("statement parse", "fuzz", span, b.parse - a.parse);
  if (b.analysis > a.analysis)
    tracer.derived("launch analysis", "runtime", span, b.analysis - a.analysis);
  if (b.retire > a.retire)
    tracer.derived("retire", "runtime", span, b.retire - a.retire);
}

} // namespace

Outcome run_ghost_stream(const Args& args, const Expected& expected) {
  const std::size_t pieces = args.tiny ? 16 : 64;
  const std::size_t launches_per_rep = args.tiny ? 2048 : 65536;
  const std::string size = args.tiny ? "tiny" : "full";
  const std::string decls = prologue(pieces);
  const std::vector<std::string> stmts = exchanges(pieces, launches_per_rep);

  Outcome out;
  Tracer tracer(now_ns());
  Totals untraced, traced_totals;
  std::vector<double> setups;
  std::vector<ServeSample> serve_samples;

  auto rep = [&](Pass pass) {
    const bool traced = pass == Pass::traced;
    // Set-up: construct the session and feed the declarations.  A rep
    // sets up several sessions and keeps the last, so the set-up median
    // rests on more samples than there are reps.
    std::unique_ptr<visrt::serve::StreamSession> session;
    std::vector<double> rep_setups;
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t t0 = now_ns();
      session =
          std::make_unique<visrt::serve::StreamSession>(session_options());
      session->feed(decls);
      rep_setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }

    const double cpu0 = cpu_seconds();
    const int root = traced ? tracer.begin("ghost-stream rep", "bench", -1) : -1;
    std::vector<double> feed_latency_us;
    const std::uint64_t start = now_ns();
    for (const std::string& stmt : stmts) {
      const LatencySums a = traced ? sums(session->latency()) : LatencySums{};
      const std::uint64_t t0 = now_ns();
      session->feed(stmt);
      const std::uint64_t t1 = now_ns();
      if (traced) {
        const int span = tracer.add("StreamSession::feed", "serve", root, t0, t1);
        split_feed_span(tracer, span, a, sums(session->latency()));
      } else if (stmt[0] == 'i') { // an `index` exchange statement
        feed_latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
    }
    const LatencySums a = traced ? sums(session->latency()) : LatencySums{};
    const std::uint64_t f0 = now_ns();
    session->finish();
    const std::uint64_t end = now_ns();
    if (traced) {
      const int span =
          tracer.add("StreamSession::finish", "serve", root, f0, end);
      split_feed_span(tracer, span, a, sums(session->latency()));
      tracer.end(root);
    }
    const double cpu_s = cpu_seconds() - cpu0;

    const visrt::serve::SessionCounters& c = session->counters();
    const visrt::serve::SessionResult& r = session->result();
    const double timed_s = static_cast<double>(end - start) * 1e-9;
    const double rate = static_cast<double>(c.launches) / timed_s;
    out.note(rep_label(pass) + std::to_string(c.launches) + " launches in " +
             std::to_string(timed_s) + " s, " + std::to_string(rate) +
             " launches/s");

    // Output check: the stream's analysis results are exact.
    out.attempted += stmts.size();
    const std::string key = "ghost-stream." + size + ".";
    bool ok = expected.check(out, key + "launches", std::to_string(c.launches));
    ok &= expected.check(out, key + "dep_edges", std::to_string(r.dep_edges));
    ok &= expected.check(out, key + "dep_graph_hash",
                         std::to_string(r.dep_graph_hash));
    ok &= expected.check(out, key + "schedule_hash",
                         std::to_string(r.schedule_hash));
    if (!ok) ++out.failed;
    for (std::uint64_t i = 0; i < c.rejected; ++i)
      out.fail("ghost-stream: statement rejected");

    if (pass == Pass::warmup) return;
    if (!traced) {
      untraced.add(static_cast<double>(c.launches), timed_s, cpu_s);
      setups.insert(setups.end(), rep_setups.begin(), rep_setups.end());
      out.latency_us.insert(out.latency_us.end(), feed_latency_us.begin(),
                            feed_latency_us.end());
      return;
    }
    traced_totals.add(static_cast<double>(c.launches), timed_s, cpu_s);
    const int obs_span = tracer.begin("latency snapshots", "obs", -1);
    const visrt::obs::HistogramSnapshot retire =
        session->latency().retire_pause.snapshot();
    const visrt::obs::HistogramSnapshot analysis =
        session->latency().launch_analysis.snapshot();
    tracer.end(obs_span);
    serve_samples.push_back(serve_sample(retire, analysis, c));
  };
  // A full-size rep takes ~2 s.
  double peak_rss = 0;
  {
    CpuRotation rotation(kRotationMs);
    peak_rss = run_reps(args, 3, rep);
  }

  out.report_throughput(untraced);
  out.metrics["setup_s"] = median(setups);
  out.report_latency("per feed() of one index statement (" +
                     std::to_string(pieces) + " launches)");
  out.metrics["peak_rss_mb"] = peak_rss;

  if (args.trace) {
    report_serve_samples(serve_samples, out);

    // Parse-only pass of the fuzz layer over the same bytes.
    std::string bytes = decls;
    for (const std::string& s : stmts) bytes += s;
    out.metrics["fuzz.parse_ns_per_stmt"] = parse_ns_per_statement(bytes);

    report_trace(tracer, static_cast<double>(serve_samples.size()), out);
    out.metrics["trace.overhead_x"] = traced_totals.rate() / untraced.rate();
    tracer.write_json(args.out_dir + "/trace-ghost-stream.json");
  }
  return out;
}

} // namespace perfbench

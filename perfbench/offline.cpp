// The offline phases.
//
// gen: records the 19 bs kernel traces, amplifies each 8x (the record
// body repeated; definitions are idempotent, so the result is still a
// valid trace), stores them as .ppdt files in --dir in a seeded order and
// writes a manifest. Generation runs in its own process so that
// the measuring process's peak RSS holds only what analysis costs.
//
// offline: loads those files, then analyzes each through
// svc::analyze_trace_bytes — trace bytes in, report out — at --jobs, pass
// after pass over the whole set. With --traced every untraced pass is
// followed by a traced one, whose calls into each layer are timed
// separately, with forwarding sinks around the profiler, PET and CU sinks,
// and by the same pipeline without those sinks, the base of the tracing
// overhead.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "bs/benchmark.hpp"
#include "common.hpp"
#include "core/analyzer.hpp"
#include "core/geometric.hpp"
#include "core/loop_class.hpp"
#include "core/multiloop_pipeline.hpp"
#include "core/task_parallelism.hpp"
#include "cu/builder.hpp"
#include "prof/profiler.hpp"
#include "prof/sharded_profiler.hpp"
#include "rt/thread_pool.hpp"
#include "store/reader.hpp"
#include "svc/analysis.hpp"
#include "trace/validator.hpp"

namespace perfbench {

using namespace ppd;

namespace {

// Every trace is amplified alike, so every seed analyzes the same events
// and only the order (and with it allocator and cache state) varies.
constexpr int kAmplify = 8;
constexpr double kHotspotFraction = core::AnalyzerConfig{}.hotspot_fraction;

struct Entry {
  std::string name;
  int amplify = 1;
  std::uint64_t events = 0;
  std::string expected_pattern;
  std::string bytes;  ///< the .ppdt container
};

std::string file_name(const std::string& dir, std::size_t index, const std::string& name) {
  return dir + "/" + std::to_string(index) + "-" + name + ".ppdt";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  out = bytes.str();
  return static_cast<bool>(in);
}

/// Loads the manifest and every .ppdt file it names.
std::vector<Entry> load_inputs(const Args& args) {
  std::vector<Entry> entries;
  std::ifstream manifest(args.dir + "/manifest.tsv");
  Entry entry;
  while (manifest >> entry.name >> entry.amplify >> entry.events) {
    const bs::Benchmark* benchmark = bs::find_benchmark(entry.name);
    if (benchmark == nullptr ||
        !read_file(file_name(args.dir, entries.size(), entry.name), entry.bytes)) {
      std::fprintf(stderr, "offline: input %s missing in %s\n", entry.name.c_str(),
                   args.dir.c_str());
      std::exit(2);
    }
    entry.expected_pattern = benchmark->paper().pattern;
    if (entry.name == args.alter_expected) entry.expected_pattern += " (altered)";
    entries.push_back(entry);
  }
  if (entries.empty()) {
    std::fprintf(stderr, "offline: no inputs in %s\n", args.dir.c_str());
    std::exit(2);
  }
  return entries;
}

/// Forwards every callback to `inner` and estimates the time spent in it.
/// Timing every call would cost more than many of the callbacks it times,
/// so one call in kSampleEvery, picked by a xorshift stream (a fixed stride
/// could alias with a loop body's event pattern), is timed and scaled up.
/// on_trace_end, called once, is always timed and kept apart: it is where
/// the sharded profiler waits for its queued blocks to drain.
class TimedSink final : public trace::EventSink {
 public:
  explicit TimedSink(trace::EventSink& inner) : inner_(inner) {}

  void on_region_enter(const trace::RegionInfo& region) override {
    timed([&] { inner_.on_region_enter(region); });
  }
  void on_region_exit(const trace::RegionInfo& region) override {
    timed([&] { inner_.on_region_exit(region); });
  }
  void on_iteration(const trace::RegionInfo& loop, std::uint64_t iteration) override {
    timed([&] { inner_.on_iteration(loop, iteration); });
  }
  void on_access(const trace::AccessEvent& access) override {
    timed([&] { inner_.on_access(access); });
  }
  void on_compute(const trace::ComputeEvent& compute) override {
    timed([&] { inner_.on_compute(compute); });
  }
  void on_statement_enter(const trace::StatementInfo& stmt) override {
    timed([&] { inner_.on_statement_enter(stmt); });
  }
  void on_statement_exit(const trace::StatementInfo& stmt) override {
    timed([&] { inner_.on_statement_exit(stmt); });
  }
  void on_trace_end() override {
    const auto start = Clock::now();
    inner_.on_trace_end();
    trace_end_s_ += seconds_since(start);
  }

  /// Busy time, less the cost of reading the clock around each sample.
  [[nodiscard]] double busy_s() const {
    const double net = static_cast<double>(sampled_ns_) -
                       static_cast<double>(samples_) * clock_read_ns();
    return net * kSampleEvery * 1e-9;
  }
  /// Time inside on_trace_end.
  [[nodiscard]] double trace_end_s() const { return trace_end_s_; }

 private:
  static constexpr std::uint32_t kSampleEvery = 16;

  template <typename Fn>
  void timed(Fn&& call) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    if (state_ % kSampleEvery != 0) {
      call();
      return;
    }
    const auto start = Clock::now();
    call();
    sampled_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                       .count();
    ++samples_;
  }

  /// Median time between two back-to-back clock reads, measured once.
  static double clock_read_ns() {
    static const double ns = [] {
      std::vector<double> gaps;
      for (int i = 0; i < 10001; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        gaps.push_back(std::chrono::duration<double, std::nano>(b - a).count());
      }
      return median(gaps);
    }();
    return ns;
  }

  trace::EventSink& inner_;
  std::uint32_t state_ = 0x9e3779b9u;
  std::int64_t sampled_ns_ = 0;
  std::int64_t samples_ = 0;
  double trace_end_s_ = 0;
};

/// Per-layer totals of one traced pass over the input set.
struct LayerTimes {
  double read_s = 0;       // store::read_trace
  double sinks_s = 0;      // inside the timed sinks during read_trace
  double prof_sink_s = 0;  // inside the profiler's callbacks but on_trace_end
  double prof_take_s = 0;  // profiler on_trace_end (the sharded drain) + take()
  double pet_sink_s = 0;
  double pet_take_s = 0;
  double cu_sink_s = 0;
  double cu_form_s = 0;
  double cu_graph_s = 0;
  double reduction_s = 0;
  double pipeline_s = 0;
  double geometric_s = 0;
  double tasks_s = 0;
  double layered_s = 0;  // the whole decomposed pipeline, tracing on
  double plain_s = 0;    // the same pipeline, tracing off
  double analyze_s = 0;  // PatternAnalyzer::analyze
  double render_s = 0;   // svc::render_report
  double analyzer_s = 0;  // read + analyze + render through PatternAnalyzer
  double shadow_bytes = 0;
  double events = 0;
  double cus = 0;
};

/// Calls fn(), adds its wall time to `total` and returns its result.
template <typename Fn>
auto timed(double& total, Fn&& fn) {
  const auto start = Clock::now();
  auto value = fn();
  total += seconds_since(start);
  return value;
}

/// The analysis pipeline of PatternAnalyzer, rebuilt from the public
/// functions of each layer so every layer is timed on its own. With `wrap`
/// the profiler, PET and CU sinks sit behind TimedSinks and the pass counts
/// into layered_s; without, they are added as they are and it counts into
/// plain_s, and the layer figures it gathers are not kept.
bool layered_analysis(const Entry& entry, std::size_t jobs, bool wrap, LayerTimes& times) {
  LayerTimes unkept;
  LayerTimes& t = wrap ? times : unkept;
  const auto start = Clock::now();
  std::unique_ptr<rt::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<rt::ThreadPool>(jobs);
  trace::TraceContext ctx;
  std::unique_ptr<prof::DependenceProfiler> serial;
  std::unique_ptr<prof::ShardedProfiler> sharded;
  trace::EventSink* profiler = nullptr;
  if (jobs > 1) {
    prof::ShardedProfiler::Options options;
    options.shards = core::AnalyzerConfig{}.profile_shards;
    options.pool = pool.get();
    sharded = std::make_unique<prof::ShardedProfiler>(options);
    profiler = sharded.get();
  } else {
    serial = std::make_unique<prof::DependenceProfiler>();
    profiler = serial.get();
  }
  pet::PetBuilder pet_builder;
  cu::CuFacts cu_facts(ctx);
  TimedSink prof_sink(*profiler);
  TimedSink pet_sink(pet_builder);
  TimedSink cu_sink(cu_facts);
  if (wrap) {
    ctx.add_sink(&prof_sink);
    ctx.add_sink(&pet_sink);
    ctx.add_sink(&cu_sink);
  } else {
    ctx.add_sink(profiler);
    ctx.add_sink(&pet_builder);
    ctx.add_sink(&cu_facts);
  }
  support::DiagSink diags;
  trace::Validator validator(&diags);
  ctx.add_sink(&validator);

  store::ReadOptions read_options;
  read_options.jobs = jobs;
  read_options.pool = pool.get();
  read_options.diags = &diags;
  const store::ReadResult read =
      timed(t.read_s, [&] { return store::read_trace(entry.bytes, ctx, read_options); });
  if (!read.status.is_ok()) return false;
  t.events += static_cast<double>(read.records);
  const double prof_s = prof_sink.busy_s();
  const double prof_end_s = prof_sink.trace_end_s();
  const double pet_s = pet_sink.busy_s() + pet_sink.trace_end_s();
  const double cu_s = cu_sink.busy_s() + cu_sink.trace_end_s();
  t.prof_sink_s += prof_s;
  t.prof_take_s += prof_end_s;
  t.pet_sink_s += pet_s;
  t.cu_sink_s += cu_s;
  t.sinks_s += prof_s + prof_end_s + pet_s + cu_s;

  const prof::Profile profile =
      timed(t.prof_take_s, [&] { return serial ? serial->take() : sharded->take(); });
  // After take(), which drains every block the sharded profiler queued.
  t.shadow_bytes +=
      static_cast<double>(serial ? serial->shadow_bytes() : sharded->shadow_bytes());
  const pet::Pet pet = timed(t.pet_take_s, [&] { return pet_builder.take(); });
  const std::vector<cu::Cu> cus =
      timed(t.cu_form_s, [&] { return cu::form_cus(cu_facts, ctx); });
  t.cus += static_cast<double>(cus.size());
  (void)timed(t.reduction_s, [&] { return core::detect_reductions(profile); });
  (void)timed(t.pipeline_s, [&] {
    return core::detect_pipelines(profile, pet, core::AnalyzerConfig{}.pipeline);
  });
  (void)timed(t.geometric_s, [&] {
    return core::detect_geometric_decomposition(profile, pet, kHotspotFraction);
  });
  for (const pet::NodeIndex node : pet.hotspots(kHotspotFraction)) {
    const cu::CuGraph graph = timed(
        t.cu_graph_s, [&] { return cu::build_cu_graph(cus, profile, pet, node, ctx); });
    if (graph.size() < 2) continue;
    (void)timed(t.tasks_s, [&] { return core::detect_task_parallelism(graph); });
  }
  (wrap ? times.layered_s : times.plain_s) += seconds_since(start);
  return true;
}

/// analyze_trace_bytes's own wiring through PatternAnalyzer, with the
/// analyze() and render_report() calls timed. Returns the report.
std::string analyzer_analysis(const Entry& entry, std::size_t jobs, LayerTimes& t) {
  const auto start = Clock::now();
  std::unique_ptr<rt::ThreadPool> pool;
  core::AnalyzerConfig config;
  if (jobs > 1) {
    pool = std::make_unique<rt::ThreadPool>(jobs);
    config.profiler_mode = core::ProfilerMode::Sharded;
    config.profile_jobs = jobs;
    config.pool = pool.get();
  }
  trace::TraceContext ctx;
  core::PatternAnalyzer analyzer(ctx, config);
  support::DiagSink diags;
  trace::Validator validator(&diags);
  ctx.add_sink(&validator);
  store::ReadOptions read_options;
  read_options.jobs = jobs;
  read_options.pool = pool.get();
  read_options.diags = &diags;
  if (!store::read_trace(entry.bytes, ctx, read_options).status.is_ok()) return {};
  const core::AnalysisResult result = timed(t.analyze_s, [&] { return analyzer.analyze(); });
  std::string report = timed(t.render_s, [&] { return svc::render_report(result, ctx); });
  t.analyzer_s += seconds_since(start);
  return report;
}

}  // namespace

int run_gen(const Args& args) {
  Rng rng(args.seed);
  std::vector<const bs::Benchmark*> benchmarks = bs::all_benchmarks();
  rng.shuffle(benchmarks);
  std::ofstream manifest(args.dir + "/manifest.tsv", std::ios::trunc);
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const int amplify = args.tiny ? 1 : kAmplify;
    const TraceInput input = make_trace_input(*benchmarks[i], amplify);
    std::ofstream out(file_name(args.dir, i, input.name), std::ios::binary | std::ios::trunc);
    out << input.ppdt;
    manifest << input.name << '\t' << amplify << '\t' << input.events << '\n';
    if (!out) {
      std::fprintf(stderr, "gen: cannot write %s\n", file_name(args.dir, i, input.name).c_str());
      return 2;
    }
  }
  return manifest ? 0 : 2;
}

int run_offline(const Args& args) {
  Result result;
  const std::string sfx = args.jobs > 1 ? ".j" + std::to_string(args.jobs) : "";

  const std::vector<Entry> entries = load_inputs(args);

  svc::AnalysisOptions options;
  options.jobs = args.jobs;
  double pass_events = 0;
  for (const Entry& e : entries) pass_events += static_cast<double>(e.events);

  // Warm-up pass, which is also the output gate: every report's primary
  // pattern must be the Table III row. Later passes must reproduce the
  // warm-up report byte for byte.
  std::map<std::string, std::uint64_t> hashes;
  std::string hash_note;
  for (const Entry& e : entries) {
    const svc::AnalysisOutput out = svc::analyze_trace_bytes(e.name, e.bytes, options);
    const std::string pattern = primary_pattern(out.report);
    result.check(out.status.is_ok() && pattern == e.expected_pattern,
                 e.name + ": primary pattern '" + pattern + "', expected '" +
                     e.expected_pattern + "' (" + out.status.to_string() + ")");
    hashes[e.name] = fnv1a(out.report);
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "%s%s=%016llx", hash_note.empty() ? "" : ",",
                  e.name.c_str(), static_cast<unsigned long long>(hashes[e.name]));
    hash_note += buffer;
  }
  result.note("report_hashes", hash_note);

  // The unit of measurement is one trace: analyzed untraced and, with
  // --traced, then traced. Units run round-robin over the set, so each
  // slice of the run takes its share of traces wherever the last one
  // stopped. Every trace is timed on its own, right after a host probe that
  // scales its time, and the rate is the set's events over the sum of each
  // trace's kUnitTimeQuantile of scaled times: a slow moment on the host
  // touches one sample of one trace, not a whole pass.
  std::vector<std::vector<double>> trace_s(entries.size());
  std::vector<std::vector<double>> raw_trace_s(entries.size());
  std::vector<LayerTimes> passes;  // traced, one per complete pass
  LayerTimes pass;
  std::size_t next = 0;
  const auto analyze_next = [&] {
    const Entry& e = entries[next];
    const double scale = host_scale();
    const auto begin = Clock::now();
    const svc::AnalysisOutput out = svc::analyze_trace_bytes(e.name, e.bytes, options);
    const double took = seconds_since(begin);
    trace_s[next].push_back(took * scale);
    raw_trace_s[next].push_back(took);
    result.check(out.status.is_ok() && fnv1a(out.report) == hashes[e.name],
                 e.name + ": report differs from the first pass");
    if (args.traced) {
      // Traced and plain replays alternate which goes first.
      const bool wrap_first = (next + passes.size()) % 2 == 0;
      for (const bool wrap : {wrap_first, !wrap_first}) {
        result.check(layered_analysis(e, args.jobs, wrap, pass),
                     e.name + ": layered replay failed");
      }
      result.check(fnv1a(analyzer_analysis(e, args.jobs, pass)) == hashes[e.name],
                   e.name + ": traced report differs from the untraced one");
    }
    if (++next == entries.size()) {
      next = 0;
      if (args.traced) passes.push_back(std::exchange(pass, LayerTimes{}));
    }
  };
  double measured = 0;
  serve_slices([&](double until) {
    while (measured < until) {
      const auto start = Clock::now();
      analyze_next();
      measured += seconds_since(start);
    }
  });
  // Per-layer figures need one whole traced pass.
  while (args.traced && passes.empty()) analyze_next();
  double pass_s = 0;
  double raw_pass_s = 0;
  std::size_t samples = SIZE_MAX;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    pass_s += percentile(trace_s[i], kUnitTimeQuantile);
    raw_pass_s += percentile(raw_trace_s[i], kUnitTimeQuantile);
    samples = std::min(samples, trace_s[i].size());
  }
  result.metric("events_per_s" + sfx, pass_events / pass_s / 1e6, "Mevents/s", samples);
  result.raw("events_per_s" + sfx, pass_events / raw_pass_s / 1e6);

  if (!passes.empty()) {
    const auto put = [&](const std::string& name, double LayerTimes::*field,
                         const char* unit) {
      std::vector<double> values;
      for (const LayerTimes& t : passes) values.push_back(t.*field);
      result.metric(name + sfx, median(values), unit, values.size());
    };
    put("store.read_s", &LayerTimes::read_s, "s");
    put("prof.sink_s", &LayerTimes::prof_sink_s, "s");
    put("prof.take_s", &LayerTimes::prof_take_s, "s");
    put("prof.shadow_bytes", &LayerTimes::shadow_bytes, "bytes");
    put("pet.sink_s", &LayerTimes::pet_sink_s, "s");
    put("pet.take_s", &LayerTimes::pet_take_s, "s");
    put("cu.sink_s", &LayerTimes::cu_sink_s, "s");
    put("cu.form_s", &LayerTimes::cu_form_s, "s");
    put("cu.graph_s", &LayerTimes::cu_graph_s, "s");
    put("cu.count", &LayerTimes::cus, "count");
    put("core.reduction_s", &LayerTimes::reduction_s, "s");
    put("core.pipeline_s", &LayerTimes::pipeline_s, "s");
    put("core.geometric_s", &LayerTimes::geometric_s, "s");
    put("core.tasks_s", &LayerTimes::tasks_s, "s");
    put("core.analyze_s", &LayerTimes::analyze_s, "s");
    put("report.render_s", &LayerTimes::render_s, "s");
    put("trace.events", &LayerTimes::events, "count");

    std::vector<double> self, share, overhead;
    for (const LayerTimes& t : passes) {
      self.push_back(t.read_s - t.sinks_s);
      share.push_back(100.0 * (t.analyze_s + t.render_s) / t.analyzer_s);
      overhead.push_back(100.0 * (t.layered_s / t.plain_s - 1.0));
    }
    result.metric("store.self_s" + sfx, median(self), "s", passes.size());
    result.metric("core.analyze_share" + sfx, median(share), "%", passes.size());
    result.metric("trace.overhead_pct" + sfx, median(overhead), "%", passes.size());
  }

  result.metric("peak_rss_mb" + sfx, peak_rss_mb(), "MB", 1);
  result.print("offline" + sfx);
  return 0;
}

}  // namespace perfbench

#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "bs/benchmark.hpp"
#include "store/writer.hpp"
#include "trace/context.hpp"
#include "trace/serialize.hpp"

namespace perfbench {

using namespace ppd;

namespace {

/// Text trace of one kernel run, recorded once per process (not thread-safe).
const std::string& recorded_text(const bs::Benchmark& benchmark) {
  static std::map<const bs::Benchmark*, std::string> cache;
  auto [it, inserted] = cache.try_emplace(&benchmark);
  if (inserted) {
    std::ostringstream out;
    trace::TraceContext ctx;
    trace::TraceWriter writer(ctx, out);
    ctx.add_sink(&writer);
    benchmark.run_traced(ctx);
    ctx.finish();
    it->second = out.str();
  }
  return it->second;
}

/// Repeats the record body of a text trace `times` times. Definitions are
/// idempotent on replay and every repetition is scope-balanced, so the
/// result is itself a well-formed trace with `times` x the events.
std::string amplify(const std::string& text, int times) {
  const std::size_t eol = text.find('\n');
  const std::string_view header(text.data(), eol + 1);
  const std::string_view body(text.data() + eol + 1, text.size() - eol - 1);
  std::string out(header);
  out.reserve(header.size() + body.size() * static_cast<std::size_t>(times));
  for (int i = 0; i < times; ++i) out += body;
  return out;
}

}  // namespace

TraceInput make_trace_input(const bs::Benchmark& benchmark, int times) {
  TraceInput input;
  input.name = benchmark.paper().name;
  input.text = amplify(recorded_text(benchmark), times);

  std::ostringstream binary;
  trace::TraceContext ctx;
  store::BinaryTraceWriter writer(ctx, binary, store::BinaryTraceWriter::Options{});
  ctx.add_sink(&writer);
  std::istringstream in(input.text);
  const trace::ReplayResult replay = trace::replay_trace(in, ctx, trace::ReplayOptions{});
  if (!replay.status.is_ok()) {
    std::fprintf(stderr, "amplified %s trace does not replay: %s\n", input.name.c_str(),
                 replay.status.to_string().c_str());
    std::exit(2);
  }
  input.events = replay.records;
  input.ppdt = binary.str();
  return input;
}

std::string primary_pattern(std::string_view report) {
  constexpr std::string_view kPrefix = "Primary pattern: ";
  const std::size_t at = report.find(kPrefix);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + kPrefix.size();
  const std::size_t end = report.find('\n', begin);
  return std::string(report.substr(begin, end == std::string_view::npos
                                              ? std::string_view::npos
                                              : end - begin));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

// About 1 ms per pass on the machine the benchmark was written on.
constexpr int kProbeSteps = 300000;

struct Probe {
  std::vector<std::uint32_t> table = std::vector<std::uint32_t>(1u << 16);  // 256 KiB
  std::unordered_map<std::uint32_t, std::uint64_t> map;
  std::vector<double> times;
  std::uint64_t sink = 0;  ///< keeps the loop's result live

  Probe() {
    for (std::uint32_t key = 0; key < 4096; ++key) map.emplace(key, key);
  }

  /// One pass. It allocates nothing, so it leaves the program's heap alone.
  double pass() {
    const auto start = Clock::now();
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    std::uint64_t acc = 0;
    for (int i = 0; i < kProbeSteps; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::uint32_t& slot = table[(x >> 40) & (table.size() - 1)];
      acc += slot;
      slot ^= static_cast<std::uint32_t>(acc);
      if ((i & 7) == 0) map.find(static_cast<std::uint32_t>(x >> 52))->second += acc;
    }
    sink += acc;
    return seconds_since(start);
  }
};

Probe& probe() {
  static Probe instance;
  return instance;
}

}  // namespace

double host_scale() {
  Probe& p = probe();
  const double first = p.pass();
  const double seconds = std::min(first, p.pass());
  p.times.push_back(seconds);
  return kProbeReferenceS / seconds;
}

double probe_median_s() { return median(probe().times); }

std::size_t probe_count() { return probe().times.size(); }

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

void serve_slices(const std::function<void(double)>& measure_until) {
  std::puts("ready");
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line) && line != "end") {
    double until = 0;
    if (std::sscanf(line.c_str(), "run %lf", &until) != 1) {
      std::fprintf(stderr, "unknown slice command '%s'\n", line.c_str());
      std::exit(2);
    }
    measure_until(until);
    std::puts("done");
    std::fflush(stdout);
  }
}

void Result::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Result::raw(const std::string& name, double value) { raw_[name] = value; }

void Result::check(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(why);
}

void Result::note(const std::string& key, const std::string& value) { notes_[key] = value; }

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// JSON has no infinity: a latency that failed requests pushed to infinity
/// prints as the largest double.
std::string json_number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g",
                std::isfinite(value) ? value : std::numeric_limits<double>::max());
  return text;
}

}  // namespace

void Result::print(const std::string& phase) const {
  std::string out = "{\"phase\": " + json_string(phase);
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"probe_ms\": " + json_number(probe_median_s() * 1e3);
  out += ", \"probes\": " + std::to_string(probe_count());
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    out += (i ? ", " : "") + json_string(errors_[i]);
  }
  out += "], \"notes\": {";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    out += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
    first = false;
  }
  out += "}, \"raw\": {";
  first = true;
  for (const auto& [name, value] : raw_) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(value);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench

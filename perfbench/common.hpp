// Shared pieces of the ppd benchmark program: seeded input generation,
// timing, summary statistics and the one-line JSON result each phase
// prints for run.py to merge.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppd::bs {
class Benchmark;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: a small, fully specified generator, so one seed gives the
/// same inputs with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Command line shared by every phase.
struct Args {
  std::string phase;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  bool traced = false;
  /// Smallest inputs: the self-test's metric-presence run.
  bool tiny = false;
  /// Negative control: the expected pattern of this benchmark is altered,
  /// so the output gate must fail.
  std::string alter_expected;
  /// Directory of the generated offline inputs (gen writes, offline reads).
  std::string dir;
};

/// One recorded bs kernel trace, amplified and stored in both containers.
struct TraceInput {
  std::string name;
  std::uint64_t events = 0;  ///< records in the amplified trace
  std::string text;          ///< `ppd-trace 1` text container
  std::string ppdt;          ///< .ppdt binary container
};

/// Builds `benchmark`'s trace amplified `times` times, in both containers.
[[nodiscard]] TraceInput make_trace_input(const ppd::bs::Benchmark& benchmark, int times);

/// The `Primary pattern:` line of a report, or "" when there is none.
[[nodiscard]] std::string primary_pattern(std::string_view report);

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// Peak resident set of this process so far, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Host-speed probe. The benchmark shares a host whose speed drifts by tens
/// of percent over seconds to minutes, and that drift moves every timing
/// of a run together. So each timed unit of program work is paired with
/// this probe, taken on the same thread just before it: a fixed,
/// cache-resident loop of integer arithmetic, table reads and hash-map
/// updates that depends on no ppd code. The probe runs twice and the faster
/// pass counts. The return value is kProbeReferenceS over that time;
/// multiplying a time measured next to the probe by it states that time on
/// a host where one probe pass takes kProbeReferenceS.
[[nodiscard]] double host_scale();
/// Quantile that sums up the repeated, probe-scaled times of one unit of
/// work (a trace analyzed, a kernel run): the lower quartile. A thread
/// waking late on a busy host only ever adds time, so the slower samples
/// carry the host's noise and the faster ones the program's cost.
inline constexpr double kUnitTimeQuantile = 0.25;
/// One probe pass on the reference host, in seconds.
inline constexpr double kProbeReferenceS = 1e-3;
/// Median probe pass time of this process so far, and the count.
[[nodiscard]] double probe_median_s();
[[nodiscard]] std::size_t probe_count();

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Collects a phase's metrics and checks, then prints them as one JSON line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// The same figure without the host_scale() correction, for the
  /// environment line.
  void raw(const std::string& name, double value);
  /// Records one checked operation; a false `ok` is a failure with `why`.
  void check(bool ok, const std::string& why);
  void note(const std::string& key, const std::string& value);

  void print(const std::string& phase) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> raw_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// run.py's slice protocol, which spreads every phase's measurement over
/// the whole run so that a passing disturbance on the host touches a part of
/// each phase rather than all of one. The phase prints "ready" once it is
/// set up. Each "run T" line asks it to measure until its measured time
/// totals T seconds: `measure_until(T)`, answered with "done". "end", or
/// the end of input, finishes the phase.
void serve_slices(const std::function<void(double)>& measure_until);

int run_gen(const Args& args);
int run_offline(const Args& args);
int run_service(const Args& args);
int run_patterns(const Args& args);

}  // namespace perfbench

// The patterns phase: what the recommended parallel code buys.
//
// Four compute-bound kernels shaped like the reproduced hotspots, each run
// as its plain sequential loop and on ppd::pat at kWorkers workers:
//
//   do_all     2mm fused rows (tmp = A·B; D = tmp·C + beta·D) — parallel_for
//   reduction  gesummv-style sum of alpha·A·x + beta·B·x     — parallel_for_reduce
//   pipeline   reg_detect-style ordered farm feeding a prefix sum — Pipeline
//   tasks      nqueens-style recursion on a board with three
//              blocked squares                                — TaskPool
//
// Every parallel result must equal its sequential loop exactly. Every
// round times each kernel on ppd::pat; every kSequentialEvery-th round
// also times its sequential loop, alternating which side runs first. Each
// run, and each pool construction, is scaled by a host probe taken just
// before it (see host_scale). Each kernel's figure is the
// kUnitTimeQuantile of its scaled times.
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "common.hpp"
#include "obs/obs.hpp"
#include "pat/pat.hpp"
#include "rt/thread_pool.hpp"

namespace perfbench {

using namespace ppd;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr int kSetupRepsPerSlice = 4;
// The sequential loops take about three times as long as the 4-worker runs;
// timing them in every second round leaves more than half of the time to
// the figures that change with ppd::pat, and enough samples to the base of
// speedup.geomean.
constexpr std::size_t kSequentialEvery = 2;

// ---- do_all: 2mm fused rows -------------------------------------------------

struct TwoMm {
  static constexpr double kProbeExponent = 1.0;
  std::size_t n = 0;
  std::vector<double> a, b, c, d0;

  TwoMm(std::size_t size, Rng& rng) : n(size) {
    for (auto* m : {&a, &b, &c, &d0}) {
      m->resize(n * n);
      for (double& v : *m) v = rng.uniform() - 0.5;
    }
  }
  /// Row i of D: tmp = A[i,:]·B, then D[i,:] = tmp·C + beta·D[i,:].
  void row(std::size_t i, std::vector<double>& d, std::vector<double>& tmp) const {
    constexpr double kAlpha = 1.5, kBeta = 1.2;
    std::fill(tmp.begin(), tmp.end(), 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = kAlpha * a[i * n + k];
      for (std::size_t j = 0; j < n; ++j) tmp[j] += aik * b[k * n + j];
    }
    double* out = &d[i * n];
    for (std::size_t j = 0; j < n; ++j) out[j] = kBeta * d0[i * n + j];
    for (std::size_t k = 0; k < n; ++k) {
      const double t = tmp[k];
      for (std::size_t j = 0; j < n; ++j) out[j] += t * c[k * n + j];
    }
  }
  std::vector<double> sequential() const {
    std::vector<double> d(n * n), tmp(n);
    for (std::size_t i = 0; i < n; ++i) row(i, d, tmp);
    return d;
  }
  std::vector<double> parallel(rt::ThreadPool& pool) const {
    std::vector<double> d(n * n);
    pat::parallel_for(pool, 0, n, [&](std::uint64_t i) {
      thread_local std::vector<double> tmp;
      tmp.resize(n);
      row(static_cast<std::size_t>(i), d, tmp);
    });
    return d;
  }
};

// ---- reduction: gesummv-style sum -------------------------------------------

struct Gesummv {
  static constexpr double kProbeExponent = 1.0;
  std::size_t n = 0;
  int sweeps = 0;
  std::vector<std::int32_t> a, b, x;

  Gesummv(std::size_t size, int sweep_count, Rng& rng) : n(size), sweeps(sweep_count) {
    for (auto* m : {&a, &b}) {
      m->resize(n * n);
      for (std::int32_t& v : *m) v = static_cast<std::int32_t>(rng.below(2001)) - 1000;
    }
    x.resize(n);
    for (std::int32_t& v : x) v = static_cast<std::int32_t>(rng.below(2001)) - 1000;
  }
  /// y_i = alpha·(A x)_i + beta·(B x)_i in exact integer arithmetic.
  std::int64_t row(std::size_t i, std::int64_t alpha) const {
    std::int64_t ax = 0, bx = 0;
    for (std::size_t j = 0; j < n; ++j) {
      ax += static_cast<std::int64_t>(a[i * n + j]) * x[j];
      bx += static_cast<std::int64_t>(b[i * n + j]) * x[j];
    }
    return alpha * ax + 3 * bx;
  }
  /// One fold over every (sweep, row) pair, sweep s scaling A by s + 1.
  std::int64_t term(std::uint64_t k) const {
    return row(static_cast<std::size_t>(k % n), static_cast<std::int64_t>(k / n) + 1);
  }
  std::int64_t sequential() const {
    std::int64_t total = 0;
    for (std::uint64_t k = 0; k < n * static_cast<std::uint64_t>(sweeps); ++k) total += term(k);
    return total;
  }
  std::int64_t parallel(rt::ThreadPool& pool) const {
    return pat::parallel_for_reduce(
        pool, 0, n * static_cast<std::uint64_t>(sweeps), std::int64_t{0},
        [&](std::int64_t acc, std::uint64_t k) { return acc + term(k); },
        [](std::int64_t lhs, std::int64_t rhs) { return lhs + rhs; });
  }
};

// ---- pipeline: ordered farm into a prefix sum --------------------------------

struct Farm {
  static constexpr double kProbeExponent = 0.5;  // see measure()
  std::uint64_t items = 0;
  std::uint64_t seed = 0;
  int iterations = 0;

  struct Item {
    std::uint64_t index = 0;
    std::uint64_t value = 0;
  };

  /// The per-item work: a serial LCG chain, compute-bound.
  std::uint64_t work(std::uint64_t index) const {
    std::uint64_t state = seed ^ (index * 0x9e3779b97f4a7c15ull);
    std::uint64_t acc = 0;
    for (int i = 0; i < iterations; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      acc += (state >> 33) ^ (acc << 1);
    }
    return acc % 1000003;
  }
  /// path[k] = path[k-1] + work(k): the sink's in-order dependence.
  std::vector<std::uint64_t> sequential() const {
    std::vector<std::uint64_t> path;
    std::uint64_t running = 0;
    for (std::uint64_t k = 0; k < items; ++k) path.push_back(running += work(k));
    return path;
  }
  std::vector<std::uint64_t> parallel(rt::ThreadPool& pool) const {
    std::vector<std::uint64_t> path;
    std::uint64_t running = 0;
    std::uint64_t next = 0;
    pat::Pipeline<Item> pipeline(pool);
    pipeline.farm(
        [this](Item item) {
          item.value = work(item.index);
          return item;
        },
        kWorkers - 1);
    pipeline.run(
        [&]() -> std::optional<Item> {
          if (next == items) return std::nullopt;
          return Item{next++, 0};
        },
        [&](Item item) { path.push_back(running += item.value); });
    return path;
  }
};

// ---- tasks: nqueens with blocked squares --------------------------------------

struct Queens {
  static constexpr double kProbeExponent = 0.5;  // see measure()
  int n = 0;
  int spawn_depth = 0;
  std::vector<std::uint32_t> blocked;  ///< per row, a mask of blocked columns

  /// Three fixed blocked squares, mirrored left to right when the seed says
  /// so. The mirror image has the same search tree, so every seed does the
  /// same work.
  Queens(int size, int depth, Rng& rng)
      : n(size), spawn_depth(depth), blocked(static_cast<std::size_t>(size), 0) {
    const bool mirror = rng.below(2) == 1;
    for (const auto& [row, col] : {std::pair{1, 4}, {6, 9}, {10, 2}}) {
      const int c = col % n;
      blocked[static_cast<std::size_t>(row % n)] |= 1u << (mirror ? n - 1 - c : c);
    }
  }
  std::uint64_t count(int row, std::uint32_t cols, std::uint32_t d1, std::uint32_t d2) const {
    if (row == n) return 1;
    const std::uint32_t all = (1u << n) - 1;
    std::uint32_t free = all & ~(cols | d1 | d2 | blocked[static_cast<std::size_t>(row)]);
    std::uint64_t total = 0;
    while (free != 0) {
      const std::uint32_t bit = free & (0u - free);
      free ^= bit;
      total += count(row + 1, cols | bit, ((d1 | bit) << 1) & all, (d2 | bit) >> 1);
    }
    return total;
  }
  std::uint64_t sequential() const { return count(0, 0, 0, 0); }

  void spawn(pat::TaskPool& tasks, std::atomic<std::uint64_t>& total, int row,
             std::uint32_t cols, std::uint32_t d1, std::uint32_t d2) const {
    if (row >= spawn_depth) {
      total.fetch_add(count(row, cols, d1, d2), std::memory_order_relaxed);
      return;
    }
    const std::uint32_t all = (1u << n) - 1;
    std::uint32_t free = all & ~(cols | d1 | d2 | blocked[static_cast<std::size_t>(row)]);
    while (free != 0) {
      const std::uint32_t bit = free & (0u - free);
      free ^= bit;
      tasks.submit([this, &tasks, &total, row, cols, d1, d2, bit, all] {
        spawn(tasks, total, row + 1, cols | bit, ((d1 | bit) << 1) & all, (d2 | bit) >> 1);
      });
    }
  }
  std::uint64_t parallel(rt::ThreadPool& pool) const {
    std::atomic<std::uint64_t> total{0};
    pat::TaskPool tasks(pool);
    spawn(tasks, total, 0, 0, 0, 0);
    tasks.wait();
    return total.load();
  }
};

template <typename Value>
struct Timings {
  std::vector<double> seq, par;
  std::vector<double> raw_par;  ///< par without the host_scale() factor
  std::optional<Value> reference;  ///< the first sequential result
};

/// Times one parallel run of `kernel` and, with `sequential`, one run of
/// its sequential loop, in the order `parallel_first` gives. Every result
/// must equal the first sequential one.
///
/// Each time is scaled by host_scale() raised to the kernel's
/// kProbeExponent. 2mm and gesummv are throughput-bound like the probe and
/// follow its speed in full. The farm's serial LCG chains and the queens'
/// branchy bit operations are latency-bound: when the probe's pass time
/// went from 0.5 to 0.9 ms as the host's load changed, their times grew
/// only 1.2 and 1.4 times while 2mm's and gesummv's grew 1.8 times, so
/// they get the square root of the probe's factor.
template <typename Kernel, typename Value>
void measure(const Kernel& kernel, rt::ThreadPool& pool, bool sequential, bool parallel_first,
             Timings<Value>& timings, Result& result, const char* name) {
  for (int side = 0; side < 2; ++side) {
    const bool parallel = (side == 0) == parallel_first;
    if (!parallel && !sequential) continue;
    const double scale = std::pow(host_scale(), Kernel::kProbeExponent);
    const auto start = Clock::now();
    const Value value = parallel ? kernel.parallel(pool) : kernel.sequential();
    const double took = seconds_since(start);
    (parallel ? timings.par : timings.seq).push_back(took * scale);
    if (parallel) timings.raw_par.push_back(took);
    if (!timings.reference) {
      timings.reference = value;
      continue;
    }
    result.check(value == *timings.reference,
                 std::string(name) + (parallel ? ": parallel result differs from sequential"
                                               : ": sequential result changed"));
  }
}

/// Per-task cost of empty tasks forked and joined on an rt::ThreadPool.
double submit_ns(std::size_t threads, std::size_t tasks) {
  rt::ThreadPool pool(threads);
  std::vector<double> per_task;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    rt::TaskGroup group(pool);
    for (std::size_t i = 0; i < tasks; ++i) group.run([] {});
    group.wait();
    per_task.push_back(seconds_since(start) * 1e9 / static_cast<double>(tasks));
  }
  return median(per_task);
}

}  // namespace

int run_patterns(const Args& args) {
  Result result;
  Rng rng(args.seed);
  const TwoMm two_mm(args.tiny ? 16 : 400, rng);
  const Gesummv gesummv(args.tiny ? 16 : 512, args.tiny ? 1 : 128, rng);
  // The farm's items and the queens' spawned subtrees are coarse enough
  // (about 150 and 60 us of work each) that compute, not the hand-offs
  // between threads, sets the kernels' time.
  const Farm farm{args.tiny ? 16u : 250u, rng.next(), args.tiny ? 100 : 120000};
  const Queens queens(args.tiny ? 6 : 13, 3, rng);

  // Set-up, the pool's construction, is timed several times at the start
  // of every slice, so that its lower quartile covers the whole run. The
  // timed pools are spares; the kernels run on one pool for the whole run.
  std::vector<double> setups, raw_setups;
  const auto time_setup = [&] {
    for (int rep = 0; rep < kSetupRepsPerSlice; ++rep) {
      const double scale = host_scale();
      const auto start = Clock::now();
      const auto spare = std::make_unique<rt::ThreadPool>(kWorkers);
      raw_setups.push_back(seconds_since(start));
      setups.push_back(raw_setups.back() * scale);
    }
  };
  auto pool = std::make_unique<rt::ThreadPool>(kWorkers);

  Timings<std::vector<double>> t_do_all;
  Timings<std::int64_t> t_reduction;
  Timings<std::vector<std::uint64_t>> t_pipeline;
  Timings<std::uint64_t> t_tasks;
  std::size_t rounds = 0;
  const auto round = [&] {
    const bool sequential = rounds % kSequentialEvery == 0;
    const bool parallel_first = rounds / kSequentialEvery % 2 == 1;
    measure(two_mm, *pool, sequential, parallel_first, t_do_all, result, "do_all");
    measure(gesummv, *pool, sequential, parallel_first, t_reduction, result, "reduction");
    measure(farm, *pool, sequential, parallel_first, t_pipeline, result, "pipeline");
    measure(queens, *pool, sequential, parallel_first, t_tasks, result, "tasks");
  };
  // The first round, sequential first, records the references and warms
  // caches and the pool; it is checked, not timed.
  round();
  for (auto* t : {&t_do_all.seq, &t_do_all.par, &t_do_all.raw_par, &t_reduction.seq,
                  &t_reduction.par, &t_reduction.raw_par, &t_pipeline.seq, &t_pipeline.par,
                  &t_pipeline.raw_par, &t_tasks.seq, &t_tasks.par, &t_tasks.raw_par}) {
    t->clear();
  }
  obs::Registry::instance().reset();
  double measured = 0;
  serve_slices([&](double until) {
    if (measured >= until) return;
    time_setup();
    while (measured < until) {
      const auto start = Clock::now();
      round();
      ++rounds;
      measured += seconds_since(start);
    }
  });

  result.metric("setup_s", percentile(setups, kUnitTimeQuantile), "s", setups.size());
  result.raw("setup_s", percentile(raw_setups, kUnitTimeQuantile));

  double log_speedup = 0;
  struct Figures {
    const char* name;
    const std::vector<double>& seq;
    const std::vector<double>& par;
    const std::vector<double>& raw_par;
  };
  const Figures kernels[] = {
      {"do_all", t_do_all.seq, t_do_all.par, t_do_all.raw_par},
      {"reduction", t_reduction.seq, t_reduction.par, t_reduction.raw_par},
      {"pipeline", t_pipeline.seq, t_pipeline.par, t_pipeline.raw_par},
      {"tasks", t_tasks.seq, t_tasks.par, t_tasks.raw_par}};
  for (const Figures& k : kernels) {
    const double par = percentile(k.par, kUnitTimeQuantile);
    const double seq = percentile(k.seq, kUnitTimeQuantile);
    result.metric(std::string("exec_s.") + k.name, par, "s", k.par.size());
    result.raw(std::string("exec_s.") + k.name, percentile(k.raw_par, kUnitTimeQuantile));
    result.metric(std::string("exec.seq_s.") + k.name, seq, "s", k.seq.size());
    log_speedup += std::log(seq / par);
  }
  result.metric("speedup.geomean", std::exp(log_speedup / std::size(kernels)), "x", rounds);

  // Runtime counters per round, from the registry the pat primitives feed.
  obs::Registry& registry = obs::Registry::instance();
  const auto per_round = [&](const char* counter) {
    return static_cast<double>(registry.counter(counter).value()) /
           static_cast<double>(rounds);
  };
  const double spawned = per_round("pat.task.spawned");
  result.metric("pat.pfr.chunks", per_round("pat.pfr.chunks"), "count", rounds);
  result.metric("pat.task.spawned", spawned, "count", rounds);
  result.metric("pat.task.steal_ratio", spawned > 0 ? per_round("pat.task.stolen") / spawned : 0,
                "ratio", rounds);
  result.metric("pat.pipeline.push_waits", per_round("pat.pipeline.push_waits"), "count", rounds);
  result.metric("pat.pipeline.pop_waits", per_round("pat.pipeline.pop_waits"), "count", rounds);
  result.metric("pat.pipeline.queue_depth.max",
                static_cast<double>(registry.gauge("pat.pipeline.queue_depth").max()), "count",
                rounds);

  if (args.traced) {
    const std::size_t tasks = args.tiny ? 1000 : 100000;
    result.metric("rt.submit_ns", submit_ns(1, tasks), "ns", 5);
    result.metric("rt.submit_ns.j4", submit_ns(4, tasks), "ns", 5);
  }
  pool.reset();
  result.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  result.print("patterns");
  return 0;
}

}  // namespace perfbench

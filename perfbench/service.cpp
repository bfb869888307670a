// The service phase: an in-process svc::Server at its defaults (2 workers,
// report cache in a fresh directory) under four closed-loop clients (fewer
// on a machine with fewer cores).
//
// Inputs: the 19 bs traces at amplification 1 or 2, each as text and as
// .ppdt — 76 distinct request bodies. Every body is first analyzed offline
// through svc::analyze_trace_bytes, the reference every service report must
// equal byte for byte.
//
// Traffic comes in rounds. Each round deploys a server on an empty cache
// and sends every one of the 76 bodies kDrawsPerBody times, in an order
// the seed shuffles afresh for each round; the clients take the requests in
// that order, each sending its next one when its last report is in. The
// first sighting of a body in a round misses the cache (an analysis plus a
// cache write) and every repeat hits it, so a quarter of the requests miss
// whatever the seed, and the seed sets only which come first. The mix is
// not taken from real traffic. A run measures whole rounds; deploying and
// tearing down are not timed.
//
// Latency runs from sending a request to receiving its report; the split
// into queueing (send to the `running` progress frame) and running comes
// from the Client::analyze progress callback. Every time of a round, and
// every set-up, is scaled by a host probe taken just before it (see
// host_scale).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "bs/benchmark.hpp"
#include "common.hpp"
#include "svc/analysis.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace perfbench {

using namespace ppd;

namespace {

constexpr std::size_t kMaxClients = 4;
constexpr std::size_t kDrawsPerBody = 4;
constexpr int kMaxAmplify = 2;
constexpr int kSetupRepsPerSlice = 4;
// Relative to the working directory: a socket path must fit in sun_path.
constexpr const char* kSocket = "svc.sock";
constexpr const char* kCacheDir = "svc-cache";

struct Body {
  std::string name;
  bool binary = false;
  std::string bytes;
  std::string reference;  ///< svc::analyze_trace_bytes report
};

struct Sample {
  double scale = 1;  ///< host_scale() of the sample's round
  double latency_ms = 0;
  double queue_ms = -1;  ///< send to `running`; < 0 when never queued
  double run_ms = -1;    ///< `running` to report
  bool ok = false;
  bool cached = false;
  bool binary = false;
};

/// Server plus connected clients: everything set up before the first
/// timed request.
struct Deployment {
  std::unique_ptr<svc::Server> server;
  std::vector<std::unique_ptr<svc::Client>> clients;
};

/// Four closed-loop clients, but no more than the machine has cores.
std::size_t client_count() {
  return std::min<std::size_t>(kMaxClients, std::max(1u, std::thread::hardware_concurrency()));
}

Deployment deploy(Result& result) {
  Deployment d;
  svc::Server::Options options;
  options.socket_path = kSocket;
  options.cache.dir = kCacheDir;
  d.server = std::make_unique<svc::Server>(options);
  const support::Status started = d.server->start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "service: server did not start: %s\n", started.to_string().c_str());
    std::exit(2);
  }
  for (std::size_t i = 0; i < client_count(); ++i) {
    auto client = std::make_unique<svc::Client>();
    const support::Status connected = client->connect(kSocket, "perfbench");
    result.check(connected.is_ok(), "connect: " + connected.to_string());
    d.clients.push_back(std::move(client));
  }
  return d;
}

/// Stops everything deploy() started and empties the cache directory, so
/// the next deploy() opens a fresh cache.
void teardown(Deployment& d) {
  d.clients.clear();
  if (d.server) d.server->stop();
  d.server.reset();
  std::error_code ec;
  std::filesystem::remove_all(kCacheDir, ec);
}

/// Pulls `key=value` out of a key=value metrics scrape; 0 when absent.
double scraped(const std::string& text, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t at = 0;
  while ((at = text.find(needle, at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::strtod(text.c_str() + at + needle.size(), nullptr);
    }
    at += needle.size();
  }
  return 0;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

int run_service(const Args& args) {
  Result result;

  std::vector<Body> bodies;
  for (const bs::Benchmark* benchmark : bs::all_benchmarks()) {
    for (int amplify = 1; amplify <= (args.tiny ? 1 : kMaxAmplify); ++amplify) {
      const TraceInput input = make_trace_input(*benchmark, amplify);
      bodies.push_back({input.name, false, input.text, {}});
      bodies.push_back({input.name, true, input.ppdt, {}});
    }
  }
  for (Body& body : bodies) {
    const svc::AnalysisOutput out =
        svc::analyze_trace_bytes(body.name, body.bytes, svc::AnalysisOptions{});
    result.check(out.status.is_ok(), body.name + ": offline reference failed");
    body.reference = out.report;
  }

  // Set-up is timed several times at the start of every slice, so that
  // its lower quartile covers the whole run; the last deployment serves the
  // slice's first round.
  Deployment d;
  bool fresh = false;  // d has served no round yet
  std::vector<double> setups, raw_setups;
  const auto set_up = [&] {
    for (int rep = 0; rep < kSetupRepsPerSlice; ++rep) {
      teardown(d);
      const double scale = host_scale();
      const auto start = Clock::now();
      d = deploy(result);
      raw_setups.push_back(seconds_since(start));
      setups.push_back(raw_setups.back() * scale);
    }
    fresh = true;
  };
  set_up();

  const std::size_t clients = d.clients.size();
  const std::size_t draws = args.tiny ? 8 : bodies.size() * kDrawsPerBody;
  Rng rng(args.seed);
  std::vector<Sample> samples;
  double wall = 0;
  double scaled_wall = 0;
  serve_slices([&](double until) {
    if (wall >= until) return;
    if (!fresh) set_up();
    while (wall < until) {
      if (!fresh) {
        teardown(d);
        d = deploy(result);
      }
      fresh = false;
      std::vector<std::size_t> sequence;
      for (std::size_t k = 0; k < bodies.size() * kDrawsPerBody; ++k) {
        sequence.push_back(k % bodies.size());
      }
      rng.shuffle(sequence);
      sequence.resize(draws);
      std::atomic<std::size_t> next{0};
      std::vector<std::vector<Sample>> per_client(clients);
      const double scale = host_scale();
      const auto begin = Clock::now();
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          svc::Client& client = *d.clients[c];
          for (std::size_t k; (k = next.fetch_add(1)) < draws;) {
            const Body& body = bodies[sequence[k]];
            Sample s;
            s.scale = scale;
            s.binary = body.binary;
            Clock::time_point running{};
            const auto sent = Clock::now();
            const svc::Client::Result r =
                client.analyze(body.bytes, {}, [&](const svc::ProgressPayload& p) {
                  if (p.stage == "running") running = Clock::now();
                });
            const auto done = Clock::now();
            s.latency_ms = ms_between(sent, done);
            if (running != Clock::time_point{}) {
              s.queue_ms = ms_between(sent, running);
              s.run_ms = ms_between(running, done);
            }
            s.ok = r.status.is_ok() && r.report == body.reference;
            s.cached = r.cached;
            per_client[c].push_back(s);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double took = seconds_since(begin);
      wall += took;
      scaled_wall += took * scale;
      for (const auto& part : per_client) samples.insert(samples.end(), part.begin(), part.end());
    }
  });

  result.metric("setup_s", percentile(setups, kUnitTimeQuantile), "s", setups.size());
  result.raw("setup_s", percentile(raw_setups, kUnitTimeQuantile));

  std::string scrape;
  const support::Status scraped_ok = d.clients[0]->metrics(svc::kMetricsFormatKeyValue, scrape);
  result.check(scraped_ok.is_ok(), "metrics scrape: " + scraped_ok.to_string());
  teardown(d);

  std::vector<double> latency, raw_latency, queue, run, hit, miss, text_miss, ppdt_miss;
  std::size_t completed = 0;
  for (const Sample& s : samples) {
    result.check(s.ok, "service report differs from offline or request failed");
    // A failed or refused request misses every latency limit.
    const double missed = std::numeric_limits<double>::infinity();
    latency.push_back(s.ok ? s.latency_ms * s.scale : missed);
    raw_latency.push_back(s.ok ? s.latency_ms : missed);
    if (!s.ok) continue;
    ++completed;
    if (s.queue_ms >= 0) {
      queue.push_back(s.queue_ms * s.scale);
      run.push_back(s.run_ms * s.scale);
    }
    const double ms = s.latency_ms * s.scale;
    (s.cached ? hit : miss).push_back(ms);
    if (!s.cached) (s.binary ? ppdt_miss : text_miss).push_back(ms);
  }
  const std::size_t n = latency.size();
  const double done = static_cast<double>(completed);
  result.metric("req_per_s", done / scaled_wall, "1/s", n);
  result.raw("req_per_s", done / wall);
  result.metric("latency_ms.p50", percentile(latency, 0.50), "ms", n);
  result.raw("latency_ms.p50", percentile(raw_latency, 0.50));
  result.metric("latency_ms.p99", percentile(latency, 0.99), "ms", n);
  result.raw("latency_ms.p99", percentile(raw_latency, 0.99));
  result.metric("svc.queue_ms.p50", percentile(queue, 0.50), "ms", queue.size());
  result.metric("svc.queue_ms.p99", percentile(queue, 0.99), "ms", queue.size());
  result.metric("svc.run_ms.p50", percentile(run, 0.50), "ms", run.size());
  result.metric("svc.hit_ms.p50", percentile(hit, 0.50), "ms", hit.size());
  result.metric("svc.miss_ms.p50", percentile(miss, 0.50), "ms", miss.size());
  result.metric("trace.text_miss_ms.p50", percentile(text_miss, 0.50), "ms",
                text_miss.size());
  result.metric("store.ppdt_miss_ms.p50", percentile(ppdt_miss, 0.50), "ms",
                ppdt_miss.size());

  // Server-side counters from the end-of-run scrape. The counters live in
  // the process-wide obs::Registry, so they total every round.
  const double hits = scraped(scrape, "svc.cache.hit");
  const double requests = scraped(scrape, "svc.requests.received");
  result.metric("svc.cache.hits", hits, "count", 1);
  result.metric("svc.requests", requests, "count", 1);
  result.metric("svc.cache.hit_ratio", requests > 0 ? hits / requests : 0, "ratio", 1);
  result.metric("svc.overloaded", scraped(scrape, "svc.requests.rejected"), "count", 1);
  result.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  result.print("service");
  return 0;
}

}  // namespace perfbench

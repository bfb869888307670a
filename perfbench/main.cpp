// ppd_perfbench: one measurement phase of the ppd benchmark per call.
//
//   ppd_perfbench <gen|offline|service|patterns|env> --seed N
//                 [--jobs J] [--dir D] [--traced] [--tiny] [--alter-expected NAME]
//
// Each measuring phase makes its inputs from the seed, sets up, then takes
// its measuring time in slices on command (see serve_slices), timing calls
// into the public entry points of the ppd libraries and checking every
// output. At the end it prints one JSON line (see Result::print). run.py
// runs the phases and merges their lines into the benchmark's result. By
// hand: printf 'run 5\nend\n' | ppd_perfbench patterns --seed 1
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

void usage() {
  std::fputs(
      "usage: ppd_perfbench <gen|offline|service|patterns|env> --seed N\n"
      "                     [--jobs J] [--dir D] [--traced] [--tiny] [--alter-expected NAME]\n",
      stderr);
}

int print_env() {
  std::printf(
      "{\"hardware_concurrency\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"ppd_obs\": %s}\n",
      std::thread::hardware_concurrency(), PPD_BENCH_BUILD_TYPE, PPD_BENCH_COMPILER,
      PPD_BENCH_OBS ? "true" : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  perfbench::Args args;
  args.phase = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--jobs" && has_value) {
      args.jobs = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--alter-expected" && has_value) {
      args.alter_expected = argv[++i];
    } else if (arg == "--dir" && has_value) {
      args.dir = argv[++i];
    } else if (arg == "--traced") {
      args.traced = true;
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else {
      usage();
      return 2;
    }
  }
  if (args.jobs == 0) {
    usage();
    return 2;
  }
  if (args.phase == "gen") return perfbench::run_gen(args);
  if (args.phase == "offline") return perfbench::run_offline(args);
  if (args.phase == "service") return perfbench::run_service(args);
  if (args.phase == "patterns") return perfbench::run_patterns(args);
  if (args.phase == "env") return print_env();
  usage();
  return 2;
}

#!/usr/bin/env python3
"""The ppd benchmark: builds ppd_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. ppd_perfbench is built under .bench_build/ with
CMake (perfbench/CMakeLists.txt compiles the ppd libraries from src/). Every
run executes every measuring process -- offline analysis at 1 job and at
4 jobs, the resident service, and the pattern kernels -- because every
workload reports every end-to-end metric; the workload decides which of them
gets most of the --seconds and whose peak RSS is reported (see README.md).
Each process takes its time in slices spread over the whole run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it records
the environment, the sample count of every metric, each process's median
host-probe time and the end-to-end figures without the probe's scaling.
Any failed, refused or mismatched operation makes `correct` false and the
exit code 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ppd_perfbench")
PHASE_TIMEOUT = 150
SLICES = 12

# Share of --seconds each measuring process gets, per workload. The
# workload's own processes get 45-55%; the others get enough to take many
# samples of each unit (a trace analyzed, a service round, a round of the
# kernels) in every run. The pattern kernels have no workload of their
# own: they get a quarter of every run.
WORKLOADS = {
    "offline": {"offline": 0.25, "offline.j4": 0.3, "service": 0.2, "patterns": 0.25},
    "service": {"offline": 0.1, "offline.j4": 0.2, "service": 0.45, "patterns": 0.25},
}
# Whose peak RSS is the workload's `peak_rss_mb`.
RSS_PHASE = {"offline": "offline", "service": "service"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally. Returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                out.flush()
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                if step is steps[0] and len(steps) == 2:
                    shutil.rmtree(BUILD, ignore_errors=True)  # configure again next time
                return False
    return os.path.exists(BINARY)


def phase_command(phase, args, extra=()):
    command = [BINARY, phase, "--seed", str(args.seed)] + list(extra)
    if args.tiny:
        command.append("--tiny")
    if args.alter_expected:
        command += ["--alter-expected", args.alter_expected]
    return command


def read_line(proc, expected=None):
    """Next line of a phase's output, within PHASE_TIMEOUT seconds."""
    signal.alarm(PHASE_TIMEOUT)
    line = proc.stdout.readline()
    signal.alarm(0)
    if not line or (expected and line.strip() != expected):
        raise RuntimeError("%s: expected %r, read %r" % (" ".join(proc.args), expected, line))
    return line


def source_digest():
    """Commit when the checkout is a git repository, else a digest of src/."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def measure(args):
    """Runs every phase of one workload; returns (phase results, env).

    The measuring processes are set up one after another and stay
    alive; their measuring time is then taken in SLICES rounds, one slice
    of each process in turn, so that each process samples the whole run.
    """
    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    procs = {}
    try:
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs)
        subprocess.run(phase_command("gen", args, ["--dir", inputs]), cwd=workdir, check=True,
                       timeout=PHASE_TIMEOUT)
        traced = ["--traced"] if args.trace else []
        phases = {
            "offline": ["offline", "--dir", inputs] + traced,
            "offline.j4": ["offline", "--dir", inputs, "--jobs", "4"] + traced,
            "service": ["service"] + traced,
            "patterns": ["patterns"] + traced,
        }
        for name, (phase, *extra) in phases.items():
            procs[name] = subprocess.Popen(phase_command(phase, args, extra), cwd=workdir,
                                           stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                           text=True)
            read_line(procs[name], "ready")
        slices = 1 if args.tiny else SLICES
        for k in range(1, slices + 1):
            for name in procs:
                share = WORKLOADS[args.workload][name]
                procs[name].stdin.write("run %.3f\n" % (args.seconds * share * k / slices))
                procs[name].stdin.flush()
                read_line(procs[name], "done")
        results = {}
        for name, proc in procs.items():
            proc.stdin.write("end\n")
            proc.stdin.flush()
            results[name] = json.loads(read_line(proc))
            if proc.wait(timeout=PHASE_TIMEOUT) != 0:
                raise RuntimeError("%s exited with %d" % (name, proc.returncode))
        env = json.loads(subprocess.run(phase_command("env", args), stdout=subprocess.PIPE,
                                        text=True, check=True, timeout=PHASE_TIMEOUT).stdout)
    finally:
        signal.alarm(0)
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return results, env


def assemble(args, results):
    """Merges the phase results into the workload's metrics and gate."""
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    errors = [e for r in results.values() for e in r["errors"]]

    # Every jobs-4 report must be byte-identical to the jobs-1 report.
    def hashes(phase):
        return dict(kv.split("=") for kv in results[phase]["notes"]["report_hashes"].split(","))
    j1, j4 = hashes("offline"), hashes("offline.j4")
    for name in sorted(j1):
        attempted += 1
        if j4.get(name) != j1[name]:
            failed += 1
            errors.append("%s: jobs-4 report differs from jobs 1" % name)

    metrics, raw = {}, {}
    for phase, result in results.items():
        for name, m in result["metrics"].items():
            if name in ("setup_s", "peak_rss_mb"):
                continue
            metrics[name] = m
        raw.update(result["raw"])
    metrics["peak_rss_mb"] = results[RSS_PHASE[args.workload]]["metrics"]["peak_rss_mb"]
    # Program set-up: the service's pool, Server::start, cache and client
    # connects, plus the pattern runtime's pool (each the lower quartile of
    # probe-scaled repeats).
    setups = [results[p]["metrics"]["setup_s"] for p in ("service", "patterns")]
    metrics["setup_s"] = {"value": sum(s["value"] for s in setups), "unit": "s",
                          "samples": min(s["samples"] for s in setups)}
    raw["setup_s"] = sum(results[p]["raw"]["setup_s"] for p in ("service", "patterns"))
    metrics["failed_ratio"] = {"value": failed / attempted, "unit": "ratio",
                               "samples": attempted}
    probe_ms = {phase: result["probe_ms"] for phase, result in results.items()}
    return attempted, failed, errors, metrics, raw, probe_ms


def run_workload(args):
    spec = load_spec()
    if not build():
        log("build failed")
        return 2
    results, env = measure(args)
    attempted, failed, errors, metrics, raw, probe_ms = assemble(args, results)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("metrics not measured: %s" % ", ".join(missing))
        return 2
    for e in errors:
        log("check failed: %s" % e)
    env.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "nproc": os.cpu_count(), "commit": source_digest(),
                "samples": {m["name"]: metrics[m["name"]]["samples"] for m in wanted},
                "probe_ms": probe_ms,
                "unscaled": {m["name"]: raw[m["name"]] for m in wanted if m["name"] in raw}})
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": metrics[m["name"]]["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


def selftest():
    """Tiny run of every workload in both modes, then the negative control."""
    spec = load_spec()
    script = os.path.abspath(__file__)
    problems = []

    def run(workload, trace, extra=()):
        command = [sys.executable, script, "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        return done.returncode, json.loads(lines[-1]) if lines else None

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s trace %d: exit %d, result %s" % (workload, trace, code, result))
                continue
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s trace %d: %s printed as %s, want unit %s"
                                    % (workload, trace, m["name"], got, m["unit"]))
            extra_names = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra_names:
                problems.append("%s trace %d: unlisted metrics %s" % (workload, trace,
                                                                       sorted(extra_names)))
            log("selftest: %s trace %d printed %d metrics" % (workload, trace,
                                                              len(result["metrics"])))

    # Negative control: one expected pattern altered, so the gate must fail.
    code, result = run("offline", 0, ["--alter-expected", "2mm"])
    if code == 0 or result is None or result["correct"] or result["failed"] == 0:
        problems.append("negative control passed the gate: exit %d, %s" % (code, result))
    else:
        log("selftest: altered 2mm pattern fails the gate (%d failed)" % result["failed"])

    for p in problems:
        log("selftest: FAIL %s" % p)
    log("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check metric presence and the output gate on tiny inputs")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--alter-expected", default="", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # A termination signal unwinds like an error: subprocess.run kills and
    # reaps the running phase, and measure() removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGALRM, lambda *_: sys.exit("a phase stopped answering"))
    # Compiler and phase temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload is required and --seconds must be positive")
    start = time.monotonic()
    code = run_workload(args)
    log("run took %.1f s" % (time.monotonic() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())

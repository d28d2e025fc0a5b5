#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the doda CLI and service.

    python3 bench/perf/run.py                      every workload, DODA_PERF_RUNS runs each
    python3 bench/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/perf/run.py compare A.json B.json

Run from anywhere inside a checkout; it builds the CLI and the OCaml
half of the benchmark (perf.exe) with dune, generates each workload's
inputs from the seed, times the real `doda` binary for a window of
--seconds, checks every output, prints each metric with its unit and,
as its last stdout line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 1 it runs perf.exe's traced reproduction instead
and reports the per-layer metrics. Results also go to
bench/perf/results/perf-<unix-ts>.json and perf-latest.json.

Standard library only. Metric names, units and bounds come from
BENCHMARK.json; README.md explains each workload and metric.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CLI = os.path.join("_build", "default", "bin", "doda_cli.exe")
PERF = os.path.join("_build", "default", "bench", "perf", "perf.exe")
EXPECTED = os.path.join(HERE, "expected")
RESULTS = os.path.join(HERE, "results")
DEFAULT_SEED = 20160701
JOBS = 2  # fixed, not derived from the machine: the workloads are defined at 2 slots
SETUP_LAUNCHES = 21  # at least; CLI workloads add SETUPS_PER_CALL after each timed call
SETUPS_PER_CALL = 3
WARMUP_S = 2.0  # a second busy core needs ~1 s to reach full speed after idle


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# --------------------------------------------------------------------------
# Workloads

SWEEP_SCALAR_NS = [32, 64, 128]
SWEEP_SCALAR_REPS = 800
SWEEP_BATCH_NS = [600 + 8 * i for i in range(48)]
SWEEP_BATCH_REPS = 252
REPLAY_N = 200
REPLAY_LENGTH = 2_000_000
SERVE_UPLOAD_N = 32
SERVE_UPLOAD_LENGTH = 8192
SERVE_RATE = 3000  # jobs/s on a 2-core VM: sizes the job-count window to about --seconds
SERVE_TRACED_JOBS = 12_000


def csv(ns):
    return ",".join(str(n) for n in ns)


def sweep_spec(batch):
    ns, reps = (SWEEP_BATCH_NS, SWEEP_BATCH_REPS) if batch else (SWEEP_SCALAR_NS, SWEEP_SCALAR_REPS)
    flags = ["--batch", "--stream"] if batch else []

    def cli(seed, tmp):
        args = ["sweep"] + flags + ["-a", "gathering", "-s", "uniform", "--ns", csv(ns),
                                    "--reps", str(reps), "--jobs", str(JOBS), "--seed", str(seed)]
        return args if batch else args + ["--checkpoint", os.path.join(tmp, "sweep.ckpt")]

    def setup(tmp):
        args = ["sweep"] + flags + ["-a", "gathering", "-s", "uniform", "--ns", "2", "--reps", "1",
                                    "--jobs", str(JOBS)]
        return args if batch else args + ["--checkpoint", os.path.join(tmp, "setup.ckpt")]

    def perf(seed, tmp):
        args = ["--ns", csv(ns), "--reps", str(reps), "--jobs", str(JOBS), "--seed", str(seed)]
        return args if batch else args + ["--checkpoint", os.path.join(tmp, "traced.ckpt")]

    def rows(out):
        return [line.split() for line in out.splitlines()
                if len(line.split()) == 4 and line.split()[0].isdigit()]

    def items(out):  # replication interactions: sum over points of mean x reps
        return sum(float(r[1]) * reps for r in rows(out))

    def runs(out):
        return len(ns) * reps

    def failed_runs(out):
        got = rows(out)
        if [int(r[0]) for r in got] != ns:
            return runs(out)
        return sum(round((1.0 - float(r[3])) * reps) for r in got)

    return dict(cli=cli, setup=setup, perf=perf, items=items, runs=runs,
                failed_runs=failed_runs, prepare=lambda seed, tmp: None,
                fresh=lambda tmp: remove(os.path.join(tmp, "sweep.ckpt")),
                setup_fresh=lambda tmp: remove(os.path.join(tmp, "setup.ckpt")))


def replay_spec(stream):
    flags = ["--stream"] if stream else []

    def prepare(seed, tmp):
        trace = os.path.join(tmp, "trace.txt")
        run_checked([CLI, "generate", "-n", str(REPLAY_N), "--length", str(REPLAY_LENGTH),
                     "--seed", str(seed), "-o", trace])
        with open(os.path.join(tmp, "tiny.txt"), "w") as f:
            f.write("0 0 1\n1 0 1\n")

    def cli(seed, tmp):
        return ["run", "-a", "gathering", "-n", str(REPLAY_N),
                "-s", "trace:" + os.path.join(tmp, "trace.txt")] + flags

    def setup(tmp):
        return ["run", "-a", "gathering", "-n", "2", "-s", "trace:" + os.path.join(tmp, "tiny.txt")] + flags

    def perf(seed, tmp):
        return ["--trace-file", os.path.join(tmp, "trace.txt"), "--n", str(REPLAY_N)]

    def failed_runs(out):
        return 0 if "stop: aggregated" in out.splitlines() else 1

    return dict(cli=cli, setup=setup, perf=perf, items=lambda out: REPLAY_LENGTH,
                runs=lambda out: 1, failed_runs=failed_runs, prepare=prepare,
                fresh=lambda tmp: None, setup_fresh=lambda tmp: None)


CLI_WORKLOADS = {
    "sweep-scalar": sweep_spec(batch=False),
    "sweep-batch-stream": sweep_spec(batch=True),
    "replay-load": replay_spec(stream=False),
    "replay-stream": replay_spec(stream=True),
}
WORKLOADS = list(CLI_WORKLOADS) + ["serve-mix"]


# --------------------------------------------------------------------------
# Processes

LIVE = []  # child processes to stop if the benchmark is interrupted


def child_env(tmp):
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    for k in ("DODA_SCRATCH", "DODA_JOBS"):
        env.pop(k, None)
    return env


ENV = dict(os.environ)


def remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def reap(proc):
    proc.wait()
    if proc in LIVE:
        LIVE.remove(proc)


def launch(args, tmp):
    with open(os.path.join(tmp, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, env=ENV)
    LIVE.append(proc)
    return proc


# Peak RSS is read from /proc (VmHWM), not from wait4's rusage: exec carries
# the old address space's high-water mark into the child's ru_maxrss, so a
# child of this interpreter never reads below the interpreter's own peak.
RSS_POLL_S = 0.005


def peak_rss_mb(proc):
    """`proc`'s peak RSS so far, or None while it is not (yet, or any more)
    running the program it was started with."""
    try:
        with open("/proc/%d/status" % proc.pid) as f:
            fields = dict(line.split(":", 1) for line in f if ":" in line)
    except OSError:
        return None
    if fields.get("Name", "").strip() != os.path.basename(proc.args[0])[:15] or "VmHWM" not in fields:
        return None
    return int(fields["VmHWM"].split()[0]) / 1024.0


def timed(args, tmp, poll_rss=True):
    """Run a command to completion: (wall_s, peak_rss_mb, exit code, stdout).
    The peak misses at most the last RSS_POLL_S of the run."""
    t0 = time.monotonic()
    proc = launch(args, tmp)
    peaks, done = [0.0], threading.Event()

    def poll():
        while not done.wait(RSS_POLL_S):
            peaks.append(peak_rss_mb(proc) or 0.0)

    poller = threading.Thread(target=poll)
    if poll_rss:
        poller.start()
    out = proc.stdout.read()
    reap(proc)
    wall = time.monotonic() - t0
    done.set()
    if poll_rss:
        poller.join()
    proc.stdout.close()
    return wall, max(peaks), proc.returncode, out.decode("utf-8", "replace")


def run_checked(args):
    res = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    if res.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(args), res.returncode,
                                                    res.stderr.decode("utf-8", "replace")[-2000:]))
    return res.stdout.decode("utf-8", "replace")


def stop_all():
    for proc in list(LIVE):
        try:
            proc.kill()
        except ProcessLookupError:
            pass
        reap(proc)


def build():
    for need in ("dune-project", os.path.join("bin", "doda_cli.ml"), os.path.join("lib", "sim", "workload.ml")):
        if not os.path.exists(need):
            raise BenchError("not a doda checkout: %s is missing under %s" % (need, ROOT))
    env = dict(os.environ, DUNE_CACHE="disabled")  # the shared cache lives outside the checkout
    res = subprocess.run(["dune", "build", "--root", ".", CLI, PERF], stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, env=env)
    if res.returncode != 0:
        raise BenchError("dune build failed:\n" + res.stdout.decode("utf-8", "replace")[-4000:])


# --------------------------------------------------------------------------
# Statistics

median = statistics.median


def summary(xs, unit):
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    m = median(xs)
    return {"unit": unit, "median": m, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / m if m else 0.0, "n": len(xs), "samples": xs}


# --------------------------------------------------------------------------
# CLI workloads

def expected_output(name, seed):
    path = os.path.join(EXPECTED, name + ".txt")
    if seed == DEFAULT_SEED and os.path.exists(path):
        with open(path) as f:
            return f.read()
    return None


def repeat(seconds, min_runs, once):
    """Call `once` until `seconds` are used: a further call starts only if
    the median call so far still fits. Returns the list of results."""
    out, t0, walls = [], time.monotonic(), []
    while True:
        r = once()
        out.append(r)
        walls.append(r[0])
        if len(out) >= min_runs and time.monotonic() - t0 + median(walls) > seconds:
            return out


def cli_run(name, seed, seconds, tmp):
    spec = CLI_WORKLOADS[name]
    spec["prepare"](seed, tmp)
    cmd = [CLI] + spec["cli"](seed, tmp)
    setup_cmd = [CLI] + spec["setup"](tmp)
    setups = []

    def setup():
        spec["setup_fresh"](tmp)
        wall, _, code, _ = timed(setup_cmd, tmp, poll_rss=False)
        if code != 0:
            raise RuntimeError("set-up command failed: " + " ".join(setup_cmd))
        setups.append(wall)

    def once():
        spec["fresh"](tmp)  # a leftover checkpoint would resume and fake a speed-up
        return timed(cmd, tmp)

    def once_then_setups():
        # Set-up launches spread over the window see the same load swings
        # as the timed calls, not one instant of them.
        r = once()
        for _ in range(SETUPS_PER_CALL):
            setup()
        return r

    warm = repeat(WARMUP_S, 1, once)
    window = repeat(seconds, 3, once_then_setups)
    while len(setups) < SETUP_LAUNCHES:
        setup()

    # Correctness: the committed output for the default seed, otherwise the
    # in-process reproduction of perf.exe through the library calls.
    reference = expected_output(name, seed)
    if reference is None:
        reference = run_checked([PERF, "trace", name] + spec["perf"](seed, tmp))
    attempted = failed = 0
    for _, _, code, out in warm + window:
        runs = spec["runs"](out)
        attempted += runs
        failed += runs if code != 0 or out != reference else spec["failed_runs"](out)
    if failed:
        print("%s: output differs from the reference or did not aggregate" % name, file=sys.stderr)
    metrics = {
        "throughput": median([spec["items"](out) / wall for wall, _, _, out in window]),
        "peak_rss_mb": median([rss for _, rss, _, _ in window]),
        "setup_s": median(setups),
    }
    return dict(correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics,
                walls=[w for w, _, _, _ in window])


def cli_trace(name, seed, seconds, tmp):
    """Traced runs through perf.exe, each paired with one untraced CLI call."""
    spec = CLI_WORKLOADS[name]
    spec["prepare"](seed, tmp)
    cmd = [CLI] + spec["cli"](seed, tmp)

    def untraced():
        spec["fresh"](tmp)
        return timed(cmd, tmp)

    repeat(WARMUP_S, 1, untraced)
    reference = expected_output(name, seed)
    layer_json = os.path.join(tmp, "layers.json")
    chrome = os.path.join(RESULTS, "trace-%s.json" % name)

    def pair():
        wall, _, code, cli_out = untraced()
        t0 = time.monotonic()
        out = run_checked([PERF, "trace", name, "--json", layer_json, "--chrome", chrome]
                          + spec["perf"](seed, tmp))
        with open(layer_json) as f:
            layers = json.load(f)["metrics"]
        ok = code == 0 and out == cli_out and (reference is None or out == reference)
        return time.monotonic() - t0, wall, layers, ok, spec["runs"](out)

    pairs = repeat(seconds, 1, pair)
    metrics = {k: median([p[2][k] for p in pairs]) for k in pairs[0][2]}
    metrics["traced.overhead_frac"] = metrics["traced.wall_s"] / median([p[1] for p in pairs]) - 1.0
    failed = sum(p[4] for p in pairs if not p[3])
    return dict(correct=failed == 0, attempted=sum(p[4] for p in pairs), failed=failed,
                metrics=metrics)


# --------------------------------------------------------------------------
# serve-mix: `doda serve` as its own process, perf.exe load as the client

def frame(obj):
    payload = json.dumps(obj).encode()
    return b"J" + struct.pack(">I", len(payload)) + payload


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise RuntimeError("server hung up")
        buf += chunk
    return buf


def start_server(tmp, metrics=False):
    sock_path = os.path.relpath(os.path.join(tmp, "serve.sock"))  # short: sun_path is 108 bytes
    remove(sock_path)
    args = [CLI, "serve", "--socket", sock_path, "--jobs", "1", "--max-queue", "64"]
    t0 = time.monotonic()
    proc = launch(args + (["--metrics"] if metrics else []), tmp)
    line = proc.stdout.readline().decode()
    if not line.startswith("listening on"):
        raise RuntimeError("doda serve did not start: %r" % line)
    return proc, sock_path, t0


def stop_server(proc):
    """Graceful drain; returns (peak RSS MB, drain counts, everything printed)."""
    rss = peak_rss_mb(proc) or 0.0  # every job has answered: this is the peak
    proc.send_signal(signal.SIGTERM)
    out = proc.stdout.read().decode()
    reap(proc)
    proc.stdout.close()
    counts = {}
    for line in out.splitlines():
        if line.startswith("drained cleanly:"):
            for part in line.split(":", 1)[1].split(","):
                k, word = part.split()
                counts[word] = int(k)
    return rss, counts, out


def serve_setup(tmp, k):
    """Spawn to first Run_result of an n = 8 warm-up job, in seconds."""
    proc, sock_path, t0 = start_server(tmp)
    try:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(sock_path)
        s.sendall(frame({"cmd": "run", "n": 8, "seed": k}))
        while True:
            recv_exact(s, 1)
            (length,) = struct.unpack(">I", recv_exact(s, 4))
            resp = json.loads(recv_exact(s, length))
            if resp.get("resp") == "run_result":
                wall = time.monotonic() - t0
                break
            if resp.get("resp") in ("rejected", "error"):
                raise RuntimeError("warm-up job refused: %r" % resp)
        s.close()
        if resp.get("stop") != "all-aggregated":
            raise RuntimeError("warm-up job did not aggregate: %r" % resp)
    finally:
        proc.kill()  # nothing to drain: the one job has answered
        reap(proc)
        proc.stdout.close()
        remove(sock_path)
    return wall


def serve_load(tmp, seed, upload, extra, metrics=False):
    proc, sock_path, _ = start_server(tmp, metrics)
    try:
        report_path = os.path.join(tmp, "load.json")
        out = run_checked([PERF, "load", "--socket", sock_path, "--seed", str(seed),
                           "--upload", upload, "--json", report_path] + extra)
    finally:
        rss, counts, server_out = stop_server(proc)
    with open(report_path) as f:
        report = json.load(f)
    # Every job the client sent must have completed: none lost, failed,
    # cancelled or rejected on the server side.
    drained = counts.get("completed") == report["jobs"] + report["warmup_jobs"] and \
        all(counts.get(k) == 0 for k in ("cancelled", "failed", "rejected"))
    return report, out, rss, drained, server_out


def serve_prepare(seed, tmp):
    upload = os.path.join(tmp, "upload.txt")
    run_checked([CLI, "generate", "-n", str(SERVE_UPLOAD_N), "--length", str(SERVE_UPLOAD_LENGTH),
                 "--seed", str(seed), "-o", upload])
    return upload


def serve_run(seed, seconds, tmp):
    upload = serve_prepare(seed, tmp)
    report, transcript, rss, drained, _ = serve_load(
        tmp, seed, upload, ["--count", str(SERVE_RATE * seconds),
                            "--warmup", str(int(SERVE_RATE * WARMUP_S))])
    setups = [serve_setup(tmp, k) for k in range(SETUP_LAUNCHES)]
    reference = expected_output("serve-mix", seed)
    failed = report["failed"]
    if not drained:
        failed = report["jobs"]
    elif reference is not None and transcript != reference:
        failed += 20  # the transcript covers the first mix cycle of 20 jobs
    for e in report["errors"]:
        print("serve-mix: " + e, file=sys.stderr)
    metrics = {
        "throughput": median(report["block_jobs_per_s"]),
        "peak_rss_mb": rss,
        "setup_s": median(setups),
    }
    return dict(correct=failed == 0, attempted=report["jobs"] + report["warmup_jobs"], failed=failed,
                metrics=metrics, latency_ms=report["latency_ms"])


def server_mean_us(server_out, name):
    for line in server_out.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] == "histogram" and fields[1] == name:
            for f in fields[2:]:
                if f.startswith("mean="):
                    return float(f[5:])
    return 0.0


def serve_trace(seed, seconds, tmp):
    upload = serve_prepare(seed, tmp)
    count = ["--count", str(SERVE_TRACED_JOBS)]
    plain, _, _, ok_plain, _ = serve_load(tmp, seed, upload,
                                          count + ["--warmup", str(int(SERVE_RATE * WARMUP_S))])
    chrome = os.path.join(RESULTS, "trace-serve-mix.json")
    traced, transcript, _, ok_traced, server_out = serve_load(
        tmp, seed, upload, count + ["--chrome", chrome], metrics=True)
    metrics = dict(traced["metrics"])
    for q in ("p50", "p95", "p99"):  # as clients see them, from the untraced load
        metrics["serve.latency_%s_ms" % q] = plain["latency_ms"][q]
    mean_latency_us = traced["latency_ms"]["mean"] * 1e3
    metrics["serve.server_queue_frac"] = server_mean_us(server_out, "serve.queue_wait_us") / mean_latency_us
    metrics["serve.server_exec_frac"] = server_mean_us(server_out, "serve.execute_us") / mean_latency_us
    metrics["traced.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    reference = expected_output("serve-mix", seed)
    failed = plain["failed"] + traced["failed"]
    if not (ok_plain and ok_traced) or (reference is not None and transcript != reference):
        failed = plain["jobs"] + traced["jobs"]
    return dict(correct=failed == 0, attempted=plain["jobs"] + traced["jobs"], failed=failed,
                metrics=metrics)


# --------------------------------------------------------------------------
# Runs and results

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(name, seed, seconds, trace, tmp):
    if name == "serve-mix":
        return (serve_trace if trace else serve_run)(seed, seconds, tmp)
    return (cli_trace if trace else cli_run)(name, seed, seconds, tmp)


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; git would search the directories above it
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, cwd=ROOT)
        return res.stdout.decode().strip() or None if res.returncode == 0 else None
    except OSError:
        return None


def write_results(doc):
    os.makedirs(RESULTS, exist_ok=True)
    stamped = os.path.join(RESULTS, "perf-%d.json" % doc["timestamp"])
    for path in (stamped, os.path.join(RESULTS, "perf-latest.json")):
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return stamped


def run_benchmark(args):
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = [args.workload] if args.workload else WORKLOADS
    runs = 1 if args.workload else int(os.environ.get("DODA_PERF_RUNS", "5"))
    modes = [args.trace] if args.trace is not None else ([0] if args.workload else [0, 1])
    build()
    tmp = os.path.join(RESULTS, "tmp-%d" % os.getpid())
    os.makedirs(tmp)
    global ENV
    ENV = child_env(tmp)
    doc = {"schema": "doda-perf-1", "timestamp": int(time.time()), "git_rev": git_rev(),
           "nproc": os.cpu_count(), "seed": args.seed, "run_seconds": seconds, "runs": runs,
           "workloads": {}}
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            entry = doc["workloads"][name] = {"runs": []}
            for trace in modes:
                specs = bench["per_layer"] if trace else bench["end_to_end"]
                count = runs if trace == 0 else 1
                results = []
                for k in range(count):
                    r = one_run(name, args.seed, seconds, trace, tmp)
                    r["trace"], r["seed"] = trace, args.seed
                    results.append(r)
                    entry["runs"].append(r)
                    final["correct"] = final["correct"] and r["correct"]
                    final["attempted"] += r["attempted"]
                    final["failed"] += r["failed"]
                key = "per_layer" if trace else "end_to_end"
                # A layer a workload never enters reads 0.
                entry[key] = {m["name"]: summary([r["metrics"].get(m["name"], 0.0) for r in results],
                                                 m["unit"]) for m in specs}
                for m in specs:
                    s = entry[key][m["name"]]
                    print("%-20s %-26s %14.6g %-6s median of %d (q1 %.6g, q3 %.6g)"
                          % (name, m["name"], s["median"], m["unit"], s["n"], s["q1"], s["q3"]))
                    label = m["name"] if args.workload else name + "." + m["name"]
                    final["metrics"][label] = {"value": s["median"], "unit": m["unit"]}
            entry["correct"] = all(r["correct"] for r in entry["runs"])
    finally:
        stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    print("results: " + write_results(doc))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


# --------------------------------------------------------------------------
# compare A.json B.json

def compare(path_a, path_b):
    bench = load_benchmark()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print("%-20s %-12s %14s %8s %14s %8s %9s %6s  %s"
          % ("workload", "metric", "median A", "IQR A", "median B", "IQR B", "delta", "bound", "verdict"))
    regress = False
    for name in WORKLOADS:
        wa = a["workloads"].get(name, {}).get("end_to_end")
        wb = b["workloads"].get(name, {}).get("end_to_end")
        if not wa or not wb:
            continue
        for m in bench["end_to_end"]:
            sa, sb = wa[m["name"]], wb[m["name"]]
            delta = (sb["median"] - sa["median"]) / sa["median"]
            worse = delta if m["better"] == "lower" else -delta
            spread = max(sa["iqr_frac"], sb["iqr_frac"])
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict, regress = "regress", True
            else:
                verdict = "agree"
            print("%-20s %-12s %14.6g %7.1f%% %14.6g %7.1f%% %+8.1f%% %5.0f%%  %s"
                  % (name, m["name"], sa["median"], 100 * sa["iqr_frac"], sb["median"],
                     100 * sb["iqr_frac"], 100 * delta, 100 * m["bound"], verdict))
    return 1 if regress else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=int(os.environ.get("DODA_PERF_SEED", DEFAULT_SEED)))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    args = p.parse_args(argv)
    os.chdir(ROOT)
    # A terminated benchmark still stops and reaps its children (finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run_benchmark(args)
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""The repository benchmark: time to verdict from the `dds` CLI, `dds serve`
latency, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the `dds`
binary and the `perfbench` helper (`cargo build --release`, into
`$CARGO_TARGET_DIR`, default `target/`). Workloads, metrics and their
definitions are in perfbench/README.md.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics, measured from outside the program; with `--trace 1` it
holds the per-layer metrics of a separate traced in-process run. Diagnostic
lines (provenance, one row per spec) come before it, and the whole result
document is also written under perfbench/out/. Every verdict is checked;
any failed check makes the exit status 1. Bad arguments or a failed build
exit 2 without a result.
"""

import argparse
import collections
import http.client
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("amalgam-search", "witness-certify", "serve-mixed")

# Set-up is timed this many times per run (at least), spread over the run.
SETUP_REPS = 21
# One serve-mixed request: phase (0 = open loop, k = k-th burst), class
# (hot, cold, bad), spec id, due/sent/done times in ns from the start of
# its phase, HTTP status, check passed.
Sample = collections.namedtuple("Sample", "phase kind id due sent done status ok")
# A single `dds` process slower than this is killed and counted failed; the
# daemon, the load generator and the traced run get `--seconds` on top.
OP_TIMEOUT_S = 120.0

END_TO_END = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("verdict_geomean_ms", "ms"),
    ("req_p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("parse.ns", "ns"), ("parse.bytes", "bytes"),
    ("api.fingerprint_ns", "ns"),
    ("lower.ns", "ns"),
    ("elim.ns", "ns"), ("elim.rules", "count"),
    ("engine.search_ns", "ns"), ("engine.expand_ns", "ns"), ("engine.canon_ns", "ns"),
    ("engine.merge_ns", "ns"), ("engine.idle_ns", "ns"),
    ("engine.configs_explored", "count"), ("engine.transitions_computed", "count"),
    ("engine.transition_cache_hits", "count"), ("engine.unique_configs", "count"),
    ("engine.dedup_probes", "count"), ("engine.fresh_ratio", "ratio"),
    ("engine.layers_parallel", "count"), ("engine.layers_inline", "count"),
    ("engine.tasks_stolen", "count"), ("engine.scratch_allocs", "count"),
    ("certify.concretize_ns", "ns"), ("certify.check_run_ns", "ns"),
    ("certify.trace_len", "count"), ("certify.witness_elements", "count"),
    ("product.ns", "ns"), ("product.configs_explored", "count"),
    ("reductions.halt_ns", "ns"),
    ("render.ns", "ns"), ("render.bytes", "bytes"),
    ("serve.engine_runs", "count"), ("serve.cache_hit_rate", "ratio"),
    ("serve.requests_per_conn", "count"), ("serve.rejected", "count"),
    ("serve.timeouts", "count"), ("serve.engine_busy_ms", "ms"),
    ("serve.hit_p50_ms", "ms"), ("serve.miss_geomean_ms", "ms"),
    ("loadgen.sent", "count"), ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cores():
    return len(os.sched_getaffinity(0))


def quantile(xs, q):
    """Nearest-rank quantile of a non-empty collection: always one of the
    samples, never an average of two."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def geomean(xs):
    return math.exp(sum(math.log(max(x, 1e-9)) for x in xs) / len(xs))


def build():
    """Builds `dds` and the helper; returns their paths, or exits 2."""
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "dds_cli", "--bin", "dds"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ]
    for argv in steps:
        if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
            log("no Cargo.toml at the checkout root: nothing to build")
            sys.exit(2)
        try:
            code = subprocess.run(argv, cwd=ROOT, stdout=sys.stderr,
                                  env=dict(os.environ, CARGO_TARGET_DIR=target)).returncode
        except OSError as e:
            log(f"cannot run cargo: {e}")
            sys.exit(2)
        if code != 0:
            log(f"build failed: {' '.join(argv)}")
            sys.exit(2)
    return os.path.join(target, "release", "dds"), os.path.join(target, "release", "perfbench")


def provenance(args):
    def out(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    has_git = os.path.isdir(os.path.join(ROOT, ".git"))
    return {
        "host_cores": cores(),
        "git_revision": out(["git", "rev-parse", "HEAD"]) if has_git else "unknown (not a git checkout)",
        "rustc": out(["rustc", "-V"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """Counts attempted and failed operations; failures are logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"FAILED: {what}")
        return ok


def spawn(argv, cwd, timeout=OP_TIMEOUT_S, **kw):
    """Starts a process with a watchdog that kills it after `timeout` s."""
    p = subprocess.Popen(argv, cwd=cwd, **kw)
    timer = threading.Timer(timeout, p.kill)
    timer.daemon = True
    timer.start()
    return p, timer


def reap(p, timer):
    """Waits for `p`; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(p.pid, 0)
    timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


def generate(helper, args, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    subprocess.run([helper, "gen", "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--out", workdir,
                    "--stamps", os.path.join(ROOT, "bench", "macro")], check=True)


def manifest_threads(workdir):
    """The manifest's engine thread count (0 = auto)."""
    with open(os.path.join(workdir, "manifest.txt")) as f:
        for line in f:
            if line.startswith("threads "):
                return int(line.split()[1])
    return 0


def batch_ops(workdir):
    """The manifest's `verify` and `equiv` lines, split into fields."""
    with open(os.path.join(workdir, "manifest.txt")) as f:
        return [line.split() for line in f if line.startswith(("verify ", "equiv "))]


# ---------------------------------------------------------------- batch


def run_op(dds, op, workdir, run):
    """One `dds verify` / `dds equiv` process. Returns (seconds, RSS MB,
    verdict, configs_explored), or None when the op failed."""
    kind, op_id = op[0], op[1]
    if kind == "verify":
        argv = [dds, "verify", "--json", "--threads", "auto", op[2]]
    else:
        argv = [dds, "equiv", "--json", "--threads", "auto", op[2], op[3]]
    out_path = os.path.join(workdir, f"{op_id}.out")
    with open(out_path, "wb") as out, open(os.path.join(workdir, f"{op_id}.err"), "wb") as err:
        t0 = time.perf_counter()
        p, timer = spawn(argv, workdir, stdout=out, stderr=err)
        code, rss = reap(p, timer)
        wall = time.perf_counter() - t0
    try:
        with open(out_path) as f:
            records = json.load(f)["records"]
    except (OSError, ValueError, KeyError):
        records = []
    if kind == "verify":
        want = op[3]
        verdict = ",".join(r["outcome"] for r in records)
    else:
        want = "equivalent"
        verdict = records[-1]["outcome"] if records else ""
    configs = records[-1]["configs_explored"] if records else 0
    ok = run.check(code == 0 and verdict == want,
                   f"{op_id}: exit {code}, verdict `{verdict}`, expected `{want}`")
    return (wall, rss, verdict, configs) if ok else None


def batch_pass(dds, ops, workdir, run, rows):
    t0 = time.perf_counter()
    for op in ops:
        r = run_op(dds, op, workdir, run)
        if r is not None:
            row = rows.setdefault(op[1], {"times": [], "rss": 0.0})
            row["times"].append(r[0])
            row["rss"] = max(row["rss"], r[1])
            row["verdict"], row["configs_explored"] = r[2], r[3]
    return time.perf_counter() - t0


def measure_batch(dds, ops, args, workdir, run, between):
    """Repeats passes, calling `between()` after each, while the next pass
    should end within half a pass of `--seconds`."""
    rows, passes = {}, []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1] / 2 < args.seconds:
        passes.append(batch_pass(dds, ops, workdir, run, rows))
        between()
    if not rows or any(op[1] not in rows for op in ops):
        return None, rows
    # A spec's time to verdict is the median of its samples, one per pass.
    typical = {k: quantile(r["times"], 0.5) for k, r in rows.items()}
    metrics = {
        "suite_s": sum(typical.values()),
        "verdict_geomean_ms": geomean(typical.values()) * 1000.0,
        "req_p50_ms": quantile(typical.values(), 0.5) * 1000.0,
        "tail_ms": max(typical.values()) * 1000.0,
        "peak_rss_mb": max(r["rss"] for r in rows.values()),
    }
    for k, r in rows.items():
        r["time_to_verdict_ms"] = typical[k] * 1000.0
        r["times_ms"] = [t * 1000.0 for t in r.pop("times")]
    rows["_passes"] = {"count": len(passes), "seconds": passes}
    return metrics, rows


# ---------------------------------------------------------------- serve


class Daemon:
    """A `dds serve` process on an ephemeral port."""

    def __init__(self, dds, workdir, timeout):
        argv = [dds, "serve", "--addr", "127.0.0.1:0", "--workers", str(cores()),
                "--threads", str(manifest_threads(workdir))]
        self.p, self.timer = spawn(argv, workdir, timeout, stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
        self.rss = None
        line = self.p.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"dds serve did not start: {line!r}")
        hostport = line.split("http://", 1)[1].split()[0]
        self.addr = hostport
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)
        deadline = time.monotonic() + 30
        while self.call("GET", "/health") != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("dds serve never answered /health")
            time.sleep(0.002)

    def call(self, method, path):
        try:
            c = http.client.HTTPConnection(self.host, self.port, timeout=10)
            c.request(method, path, headers={"Connection": "close"})
            status = c.getresponse().status
            c.close()
            return status
        except OSError:
            return None

    def stop(self):
        """Drains the daemon through POST /shutdown (killing it if that
        fails) and waits for it; records its peak RSS."""
        if self.p.returncode is not None:
            return
        if self.call("POST", "/shutdown") != 200:
            self.p.kill()
        self.p.stdout.read()
        self.p.stdout.close()
        _, self.rss = reap(self.p, self.timer)


def setup_once(helper, dds, args, workdir, codes):
    """One timed set-up: generate the specs into `workdir`, then for batch
    workloads `dds check` them all in one process (parse and lower; this
    also maps the binary and the specs into the page cache), for serve
    start the daemon until /health answers. Returns the time and the
    daemon (serve only); adds `dds check`'s exit code to `codes`."""
    t0 = time.perf_counter()
    generate(helper, args, workdir)
    if args.workload == "serve-mixed":
        daemon = Daemon(dds, workdir, args.seconds + OP_TIMEOUT_S)
        return time.perf_counter() - t0, daemon
    specs = [f for op in batch_ops(workdir) for f in op[2:] if f.endswith(".dds")]
    codes.add(subprocess.run([dds, "check", *specs], cwd=workdir,
                             stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S).returncode)
    return time.perf_counter() - t0, None


class Setup:
    """Times set-up SETUP_REPS times or more, spread over the run: a host
    episode of a second or two would otherwise catch every repetition. The
    first repetition prepares the run's own directory; the others go to a
    side directory (for serve, start a second daemon and stop it)."""

    def __init__(self, helper, dds, args, workdir):
        self.helper, self.dds, self.args = helper, dds, args
        self.side = workdir + "-setup"
        self.times, self.codes = [], set()
        t, self.daemon = setup_once(helper, dds, args, workdir, self.codes)
        self.times.append(t)

    def again(self, reps=1):
        for _ in range(reps):
            t, daemon = setup_once(self.helper, self.dds, self.args, self.side, self.codes)
            self.times.append(t)
            if daemon is not None:
                daemon.stop()

    def median(self):
        self.again(SETUP_REPS - len(self.times))
        shutil.rmtree(self.side, ignore_errors=True)
        return statistics.median(self.times)


def load(helper, daemon, workdir, args, run, until_ms=None):
    """Runs the load generator against `daemon`; returns the samples (open
    loop, then bursts), the burst wall times in s and the /stats deltas."""
    argv = [helper, "load", "--addr", daemon.addr, "--manifest",
            os.path.join(workdir, "manifest.txt"), "--conns", str(cores())]
    if until_ms is not None:
        argv += ["--until-ms", str(int(until_ms)), "--bursts", "0"]
    p, timer = spawn(argv, workdir, args.seconds + OP_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    out = p.stdout.read()
    p.stdout.close()
    code, _ = reap(p, timer)
    samples, bursts, stats = [], [], {}
    for line in out.splitlines():
        f = line.split()
        if f[0] == "req":
            samples.append(Sample(int(f[1]), f[2], f[3], *map(int, f[4:8]), f[8] == "1"))
        elif f[0] == "burst":
            bursts.append(int(f[2]) / 1e9)
        elif f[0] == "stat":
            stats[f[1]] = int(f[2])
    for s in samples:
        run.check(s.ok, f"serve {s.id} (phase {s.phase}, due {s.due / 1e9:.3f}s): status {s.status}")
    # The warm-up and transport errors surface as a non-zero exit only.
    run.check(code == 0 or (code == 1 and samples), f"load generator exit {code}")
    return samples, bursts, stats


def latency_ms(s):
    return (s.done - s.due) / 1e6


def by_spec(samples):
    """Latencies per spec. Each first-seen request is a fresh copy of one
    of a few base specs (`cold-<base>-<k>`); the base is the spec."""
    out = collections.defaultdict(list)
    for s in samples:
        out[s.id.rsplit("-", 1)[0] if s.kind == "cold" else s.id].append(latency_ms(s))
    return out


def serve_metrics(samples, bursts):
    """End-to-end metrics of the open loop's samples and the bursts."""
    # A spec's time to verdict is the median latency of its requests.
    typical = [quantile(v, 0.5) for v in by_spec(samples).values()]
    return {
        "suite_s": statistics.median(bursts),
        "verdict_geomean_ms": geomean(typical),
        "req_p50_ms": quantile([latency_ms(s) for s in samples], 0.5),
        "tail_ms": max(typical),
    }


def by_kind(samples):
    rows = {}
    for kind in ("all", "hot", "cold", "bad"):
        lat = [latency_ms(s) for s in samples if kind in ("all", s.kind)]
        if lat:
            rows[kind] = {"requests": len(lat), "p50_ms": quantile(lat, 0.5),
                          "p95_ms": quantile(lat, 0.95), "p99_ms": quantile(lat, 0.99)}
    return rows


def serve_layers(samples, stats):
    lookups = stats["cache_hits"] + stats["engine_runs"]
    spec = by_spec(samples)
    cold = [quantile(v, 0.5) for k, v in spec.items() if k.startswith("cold-")]
    hot = [latency_ms(s) for s in samples if s.kind == "hot"]
    return {
        "serve.engine_runs": stats["engine_runs"],
        "serve.cache_hit_rate": stats["cache_hits"] / lookups if lookups else 0.0,
        "serve.requests_per_conn": stats["requests"] / max(stats["connections"], 1),
        "serve.rejected": stats["rejected"],
        "serve.timeouts": stats["timeouts"],
        "serve.engine_busy_ms": (stats["search_ns"] + stats["certify_ns"]) / 1e6,
        "serve.hit_p50_ms": quantile(hot, 0.5) if hot else 0.0,
        "serve.miss_geomean_ms": geomean(cold) if cold else 0.0,
        "loadgen.sent": len(samples),
        "loadgen.lag_p99_ms": quantile([(s.sent - s.due) / 1e6 for s in samples], 0.99),
    }


# ---------------------------------------------------------------- traced run


def traced(helper, workdir, seconds, run):
    """The in-process traced run; returns (per-layer metrics, rows)."""
    seconds = max(seconds, 0.5)
    argv = [helper, "trace", "--manifest", os.path.join(workdir, "manifest.txt"),
            "--seconds", f"{seconds:.3f}", "--spans", os.path.join(workdir, "spans.jsonl")]
    p, timer = spawn(argv, workdir, seconds + OP_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    out = p.stdout.read()
    p.stdout.close()
    code, _ = reap(p, timer)
    metrics, rows = {}, {}
    for line in out.splitlines():
        f = line.split()
        if f[0] == "metric":
            metrics[f[1]] = float(f[2])
        elif f[0] == "row" and f[2] != "hit":
            rows[f[1]] = {"verdict": f[2], "configs_explored": int(f[3]),
                          "unique_configs": int(f[4]), "trace_len": int(f[5])}
        elif f[0] == "passes":
            rows["_passes"] = {"traced": int(f[1])}
    run.check(code == 0, f"traced run exit {code}")
    probes = metrics.get("engine.dedup_probes", 0.0)
    metrics["engine.fresh_ratio"] = 1.0 - metrics.get("engine.dedup_hits", 0.0) / probes if probes else 0.0
    return metrics, rows


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    dds, helper = build()
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}")
    run = Run()
    rows, metrics = {}, {}
    setup = Setup(helper, dds, args, workdir)
    daemon = setup.daemon
    try:
        if args.workload == "serve-mixed":
            until = args.seconds * 500.0 if args.trace else None
            if not args.trace:
                # Half the set-ups before the load, half after it.
                setup.again(SETUP_REPS // 2)
            samples, bursts, stats = load(helper, daemon, workdir, args, run, until)
            daemon.stop()
            open_loop = [s for s in samples if s.phase == 0]
            rows["by_kind"] = by_kind(open_loop)
            rows["bursts"] = {"seconds": bursts}
            if args.trace:
                metrics, rows["traced"] = traced(helper, workdir, args.seconds / 2, run)
                metrics.update(serve_layers(open_loop, stats))
            elif open_loop and bursts:
                metrics = serve_metrics(open_loop, bursts)
                metrics["peak_rss_mb"] = daemon.rss
        else:
            ops = batch_ops(workdir)
            if args.trace:
                cli = {}
                t0 = time.perf_counter()
                batch_pass(dds, ops, workdir, run, cli)
                metrics, traced_rows = traced(helper, workdir, args.seconds - (time.perf_counter() - t0), run)
                for op in ops:
                    want = cli.get(op[1], {}).get("verdict")
                    got = traced_rows.get(op[1], {}).get("verdict")
                    run.check(want == got, f"{op[1]}: traced verdict `{got}` differs from CLI `{want}`")
                rows = traced_rows
            else:
                metrics, rows = measure_batch(dds, ops, args, workdir, run, setup.again)
    finally:
        if daemon is not None:
            daemon.stop()

    names = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics = dict(metrics or {}, setup_s=setup.median())
    if setup.codes:
        run.check(setup.codes == {0}, f"dds check exit codes {sorted(setup.codes)}")
    missing = [n for n, _ in names if n not in metrics]
    # Layers a workload never calls read 0 in its traced run.
    if args.trace:
        metrics.update({n: 0.0 for n in missing})
    elif missing:
        run.check(False, f"no measurement for {missing}")
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {n: {"value": float(metrics.get(n, 0.0)), "unit": u} for n, u in names},
    }
    prov = provenance(args)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": prov, "rows": rows, "result": result}, f, indent=1)
    print(json.dumps({"provenance": prov}))
    for k, r in sorted(rows.items()):
        print(json.dumps({"row": k, **r}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

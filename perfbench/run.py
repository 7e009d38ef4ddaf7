#!/usr/bin/env python3
"""The repository benchmark: regenerate the paper's tables and serve sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark builds its own Release
tree in .bench_build/cmake (perfbench/CMakeLists.txt: the simulator
plus perfbench_probe), refuses to run against a tree of another build
type or with a binary missing, and then runs one workload:

  regen_loops   the 13 paper benches that drive layers through
                hand-written per-record loops, serially, default length
  regen_sweeps  the 10 paper benches built on runSweep, serially,
                default length; whole sets repeat while --seconds allows
  serve_mix     a closed loop of 2 connections against ibs_serve (pool
                of 2 workers) sending a fixed, seeded list of requests

Every bench's stdout is checked against its golden sha256
(perfbench/golden/regen_stdout.json) and every served cell against its
reference stats (perfbench/golden/serve_reference.json). A mismatch, a
non-zero exit, an error frame or a transport error counts as one failed
operation and is named on stderr.

With --trace 0 the last stdout line carries the end-to-end metrics,
measured untraced. With --trace 1 it carries the per-layer metrics of
a traced run: spans around every bench process, every served request
and every layer call perfbench_probe makes, kept in memory and written
to .bench_build/runs/<run>/spans.json when the run ends.
perfbench/METRICS.md maps each per-layer metric to the end-to-end
metric it should move.

    python3 perfbench/run.py --write-golden

regenerates both golden files from the current code (state the reason
in CHANGES.md). The self-tests are `python3 perfbench/test_run.py`.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
TREE = WORK / "cmake"
GOLDEN_STDOUT = HERE / "golden" / "regen_stdout.json"
GOLDEN_SERVE = HERE / "golden" / "serve_reference.json"

REGEN_LOOPS = [
    "fig5_variability", "ablation_tlb", "fig1_three_cs",
    "table3_ibs_decstation", "table4_ibs_mpi", "table1_spec_decstation",
    "ablation_bloat", "ablation_placement", "ablation_victim",
    "ablation_unified_l2", "ablation_cml", "ablation_inclusion",
    "fig2_components",
]
REGEN_SWEEPS = [
    "fig3_l2_linesize", "fig4_l2_assoc", "fig6_bandwidth", "fig7_summary",
    "table5_baselines", "table6_prefetch", "table7_bypass",
    "table8_streambuf", "ablation_subblock", "ablation_multiissue",
]
WORKLOADS = {
    "regen_loops": REGEN_LOOPS,
    "regen_sweeps": REGEN_SWEEPS,
    "serve_mix": None,
}

THREADS = 2             # IBS_THREADS: clients + workers <= nproc (4)
SETUP_REPEATS = 5       # set-up is timed this often; the median counts
SMOKE_INSTR = 20_000    # pre-flight length of each bench

SERVE_CONNECTIONS = 2
SERVE_SUITES = ("ibs_mach", "ibs_ultrix", "spec")
SERVE_INSTR = 200_000   # warm keys: each suite at this length
COLD_INSTR = (120_000, 160_000, 240_000)  # cold keys: each suite at these
WARM_REPEATS = 719      # requests per warm key
COLD_REPEATS = 27       # requests per cold key: 243 of 2400, 10.1%
SERVE_REQUESTS = len(SERVE_SUITES) * (WARM_REPEATS
                                      + len(COLD_INSTR) * COLD_REPEATS)
SERVE_CONFIGS = ("economy", "high_performance")
MIN_TAIL_SAMPLES = 10   # a percentile needs this many samples beyond it

PROBE = "perfbench_probe"
SERVER = "ibs_serve"


class Refusal(Exception):
    """The benchmark cannot run here: no result is printed."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Statistics


def percentile(values, q):
    """Nearest-rank q-th percentile of `values`.

    Raises ValueError when fewer than MIN_TAIL_SAMPLES samples lie
    beyond it: such a tail is one or two outliers, not a percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_TAIL_SAMPLES}")
    return ordered[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------
# Serve request plans


def request_plan(seed):
    """The serve_mix request list for `seed`: SERVE_REQUESTS requests.

    Every seed sends the same multiset, so runs differ only in order:
    WARM_REPEATS requests per warm key (a whole suite at SERVE_INSTR)
    and COLD_REPEATS per cold key (a whole suite at one of COLD_INSTR),
    about 90% and 10%.
    """
    plan = [sweep_request(s, SERVE_INSTR)
            for s in SERVE_SUITES for _ in range(WARM_REPEATS)]
    plan += [sweep_request(s, n) for s in SERVE_SUITES for n in COLD_INSTR
             for _ in range(COLD_REPEATS)]
    random.Random(seed).shuffle(plan)
    return plan


def sweep_request(suite, instructions):
    return {"suite": suite, "configs": list(SERVE_CONFIGS),
            "workloads": [], "instructions": instructions}


def warm_plan():
    """One request per warm key: fills the memo before timing."""
    return [sweep_request(s, SERVE_INSTR) for s in SERVE_SUITES]


def reference_plan():
    """Every key any seed can draw."""
    return [sweep_request(s, n) for s in SERVE_SUITES
            for n in (SERVE_INSTR,) + COLD_INSTR]


def write_plan(path, plan):
    path.write_text("".join(json.dumps(r) + "\n" for r in plan))


# ---------------------------------------------------------------------
# Build and fingerprint


def run_logged(argv, log_path):
    """Run a build step; its compiler temporaries stay in the checkout."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "ab") as out:
        return subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode


def build(tree=TREE):
    """Configure (once) and build every binary; return the bin paths."""
    tree.mkdir(parents=True, exist_ok=True)
    build_log = tree / "perfbench-build.log"
    configured = any((tree / f).exists() for f in ("Makefile", "build.ninja"))
    if not configured:
        rc = run_logged(["cmake", "-S", str(HERE), "-B", str(tree),
                         "-DCMAKE_BUILD_TYPE=Release"], build_log)
        if rc != 0:
            raise Refusal(f"cmake configure failed; see {build_log}")
    check_build_type(tree)
    stamp = tree / "perfbench-sources.sha256"
    digest = source_digest()
    if not stamp.exists() or stamp.read_text() != digest:
        jobs = str(min(4, os.cpu_count() or 1))
        rc = run_logged(["cmake", "--build", str(tree), "-j", jobs],
                        build_log)
        if rc != 0:
            raise Refusal(f"build failed; see {build_log}")
        stamp.write_text(digest)
    return binaries(tree), digest


def cache_entry(tree, name):
    cache = tree / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1]
    return None


def check_build_type(tree):
    build_type = cache_entry(tree, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise Refusal(f"{tree} is a {build_type or 'no-type'} build; "
                      "timings are only comparable from Release. "
                      f"Delete {tree} to let the benchmark rebuild it.")


def binaries(tree):
    bins = {name: tree / "ibs" / "bench" / name
            for name in REGEN_LOOPS + REGEN_SWEEPS}
    bins[SERVER] = tree / "ibs" / "tools" / SERVER
    bins[PROBE] = tree / PROBE
    missing = [n for n, p in bins.items() if not os.access(p, os.X_OK)]
    if missing:
        raise Refusal("missing binaries: " + ", ".join(sorted(missing)))
    return bins


def source_digest():
    """sha256 over every source the build reads: identifies the code
    even in a checkout that is not a git repository, and lets a run
    skip the build when nothing changed."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt",
             HERE / "probe.cc"]
    for top in ("src", "bench", "tools"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(tree, seed, digest):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = cache_entry(tree, "CMAKE_CXX_COMPILER") or "c++"
    version = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        commit = r.stdout.strip() if r.returncode == 0 else None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache_entry(tree, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_sha256": digest,
        "ibs_threads": THREADS,
        "seed": seed,
        "python": platform.python_version(),
    }


def child_env(**extra):
    """The caller's environment without any IBS_* knob, so every bench
    and server runs its defaults, plus IBS_THREADS and `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("IBS_")}
    env["IBS_THREADS"] = str(THREADS)
    env.update({k: str(v) for k, v in extra.items()})
    return env


# ---------------------------------------------------------------------
# Spans


class Tracer:
    """In-memory spans: name, layer, start, end, parent and the id of
    the workload they belong to. Written out once, when the run ends."""

    def __init__(self):
        self.spans = []

    def add(self, name, layer, trace_id, parent, start, end):
        span = {"id": len(self.spans) + 1, "parent": parent,
                "trace_id": trace_id, "name": name, "layer": layer,
                "start": start, "end": end}
        self.spans.append(span)
        return span["id"]

    @contextlib.contextmanager
    def span(self, name, layer, trace_id, parent=0):
        """Yields a dict whose "id" is valid inside the block."""
        start = time.monotonic()
        span = {"id": self.add(name, layer, trace_id, parent, start, start)}
        try:
            yield span
        finally:
            self.spans[span["id"] - 1]["end"] = time.monotonic()

    def adopt(self, spans, trace_id, parent):
        """Re-number spans recorded by another process under `parent`."""
        ids = {}
        for s in spans:
            ids[s["id"]] = self.add(s["name"], s["layer"], trace_id,
                                    ids.get(s["parent"], parent),
                                    s["start"], s["end"])

    def self_seconds(self):
        """Per layer: each span's duration minus the part of it that
        its children cover (children may overlap: concurrent requests)."""
        children = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []),
                            key=lambda c: c["start"]):
                start, end = max(c["start"], reach), min(c["end"], s["end"])
                if end > start:
                    covered += end - start
                    reach = end
            own = s["end"] - s["start"] - covered
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out


# ---------------------------------------------------------------------
# Processes


PROCESS_TIMEOUT = 150  # seconds; a run must end within 180


def run_process(argv, env, cwd, stdout_path):
    """Run to completion; return (exit code, start, end, rusage).
    A process still running after PROCESS_TIMEOUT is killed (it then
    reports a negative exit code, which counts as a failure)."""
    with open(stdout_path, "wb") as out, \
            open(str(stdout_path) + ".err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=cwd)
        watchdog = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage


def load_golden(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise Refusal(f"cannot read golden file {path}: {e}")


class BenchSet:
    """One serial pass over a list of benches."""

    def __init__(self, benches, bins, env, outdir):
        self.benches, self.bins, self.env = benches, bins, env
        self.outdir = Path(outdir)
        self.runs = []  # name, rc, start, end, cpu_s, maxrss_kb

    def run(self):
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.start = time.monotonic()
        for name in self.benches:
            rc, start, end, usage = run_process(
                [str(self.bins[name])], self.env, self.outdir,
                self.outdir / f"{name}.out")
            self.runs.append({
                "name": name, "rc": rc, "start": start, "end": end,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss})
        self.end = time.monotonic()
        return self

    @property
    def wall(self):
        return self.end - self.start

    def failures(self, golden):
        """One message per bench that exited non-zero or whose stdout
        differs from its golden digest."""
        out = []
        for r in self.runs:
            name = r["name"]
            if r["rc"] != 0:
                out.append(f"{name}: exit code {r['rc']}")
                continue
            digest = hashlib.sha256(
                (self.outdir / f"{name}.out").read_bytes()).hexdigest()
            want = golden.get(name, {}).get("sha256")
            if digest != want:
                out.append(f"{name}: stdout sha256 {digest[:16]} differs "
                           f"from golden {str(want)[:16]}")
        return out


class Server:
    """A spawned ibs_serve, stopped (and waited for) on exit."""

    def __init__(self, binary, env, logdir):
        self.err = open(Path(logdir) / "server.err", "ab")
        self.proc = subprocess.Popen([str(binary)], stdout=subprocess.PIPE,
                                     stderr=self.err, env=env)
        deadline = time.monotonic() + 60
        line = b""
        while not line.endswith(b"\n") and time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 256)
                if not chunk:
                    break
                line += chunk
        words = line.split()
        if len(words) != 2 or words[0] != b"LISTENING":
            self.stop()
            raise RuntimeError(f"ibs_serve did not report LISTENING "
                               f"within 60 s: {line!r}")
        self.port = int(words[1])

    def vm_hwm_kb(self):
        with contextlib.suppress(OSError):
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def serve_loop(bins, server, plan, connections, outdir, tag):
    """Run `plan` through perfbench_probe; return its per-request
    records, the server's stats, and one message per failed request."""
    plan_path = outdir / f"{tag}.plan"
    out_path = outdir / f"{tag}.requests"
    write_plan(plan_path, plan)
    rc, _, _, _ = run_process(
        [str(bins[PROBE]), "serve", str(server.port), str(plan_path),
         str(GOLDEN_SERVE), str(connections), str(out_path)],
        child_env(), outdir, outdir / f"{tag}.probe")
    records, stats = [], None
    if out_path.exists():
        for line in out_path.read_text().splitlines():
            words = line.split(" ", 1)
            if words[0] == "stats":
                stats = json.loads(words[1])
            elif words[0] == "req":
                f = words[1].split()
                records.append({
                    "index": int(f[0]), "ok": f[1] == "1",
                    "code": int(f[2]), "memo_hit": f[3] == "1",
                    "bad_cells": int(f[4]), "bytes": int(f[5]),
                    "start": float(f[6]), "end": float(f[7]),
                    "server_s": float(f[8])})
    failures = [f"{tag} request {r['index']} "
                f"({plan[r['index']]['suite']}#"
                f"{plan[r['index']]['instructions']}): "
                + ("error frame %d" % r["code"] if r["code"]
                   else "transport error or stats mismatch")
                for r in records if not r["ok"]]
    missing = len(plan) - len(records)
    failures += [f"{tag}: perfbench_probe exit code {rc}, "
                 f"request unanswered"] * missing
    return records, stats, failures


# ---------------------------------------------------------------------
# Workloads


class Context:
    def __init__(self, bins, seed, seconds, outdir):
        self.bins, self.seed, self.seconds = bins, seed, seconds
        self.outdir = outdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures = []

    def count(self, attempted, failures):
        self.attempted += attempted
        for f in failures:
            log("FAILED " + f)
        self.failures += failures

    def order(self, benches):
        """The seed decides the bench order, never the bench set."""
        order = list(benches)
        self.rng.shuffle(order)
        return order


def preflight(ctx, benches, tag):
    """Launch every bench once at a short length: each must exit 0.
    This also brings the binaries into the page cache before timing."""
    env = child_env(IBS_BENCH_INSTR=SMOKE_INSTR)
    bench_set = BenchSet(benches, ctx.bins, env, ctx.outdir / tag).run()
    ctx.count(len(bench_set.runs),
              [f"pre-flight {r['name']}: exit code {r['rc']}"
               for r in bench_set.runs if r["rc"] != 0])


def regen_pass(ctx, workload, golden, env, tag):
    bench_set = BenchSet(ctx.order(WORKLOADS[workload]), ctx.bins, env,
                         ctx.outdir / tag).run()
    ctx.count(len(bench_set.runs), bench_set.failures(golden))
    return bench_set


def run_regen(ctx, workload):
    golden = load_golden(GOLDEN_STDOUT)
    setups = []
    for i in range(SETUP_REPEATS):
        start = time.monotonic()
        preflight(ctx, WORKLOADS[workload], f"preflight{i}")
        setups.append(time.monotonic() - start)
    sets = []
    begin = time.monotonic()
    while True:
        sets.append(regen_pass(ctx, workload, golden, child_env(),
                               f"set{len(sets)}"))
        elapsed = time.monotonic() - begin
        if elapsed + sets[-1].wall > ctx.seconds:
            break
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(s.wall for s in sets), "s"),
        "peak_rss_mb": metric(max(r["maxrss_kb"] for s in sets
                                  for r in s.runs) / 1024.0, "MB"),
    }


def serve_setup(ctx, budget, tag):
    """Spawn a server, wait for LISTENING, fill the warm keys.
    Returns (server, seconds, warm memo bytes)."""
    start = time.monotonic()
    env = child_env(IBS_SERVE_MEMO_BYTES=budget) if budget else child_env()
    server = Server(ctx.bins[SERVER], env, ctx.outdir)
    try:
        records, stats, failures = serve_loop(
            ctx.bins, server, warm_plan(), 1, ctx.outdir, tag)
    except BaseException:
        server.stop()
        raise
    seconds = time.monotonic() - start
    ctx.count(len(warm_plan()), failures)
    warm_bytes = stats["memo"]["bytes"] if stats else 0
    return server, seconds, warm_bytes


def memo_budget(warm_bytes):
    """The warm keys plus room for one cold key of the largest length
    (10% margin: suites differ slightly in bytes per instruction). A
    cold key then evicts the cold key before it, never a warm one in
    the ordinary case, so the count of suite builds in a run is fixed
    by the plan rather than by how the two connections interleave."""
    per_key = warm_bytes / len(SERVE_SUITES)
    return int(warm_bytes + 1.1 * per_key * max(COLD_INSTR) / SERVE_INSTR)


def serve_pass(ctx, tag, setups):
    """Set up `setups` (>= 2) servers in turn and run the fixed request
    plan through the last. The first runs with the default memo budget
    and measures the warm keys' bytes; the others get memo_budget() of
    that. Returns (set-up seconds of each, per-request records, server
    stats, server VmHWM in kB)."""
    budget, server, times = 0, None, []
    for i in range(setups):
        if server:
            server.stop()
        server, seconds, warm_bytes = serve_setup(ctx, budget,
                                                  f"{tag}-setup{i}")
        budget = budget or memo_budget(warm_bytes)
        times.append(seconds)
    try:
        plan = request_plan(ctx.seed)
        records, stats, failures = serve_loop(
            ctx.bins, server, plan, SERVE_CONNECTIONS, ctx.outdir, tag)
        hwm_kb = server.vm_hwm_kb()
    finally:
        server.stop()
    ctx.count(len(plan), failures)
    return times, records, stats, hwm_kb


def loop_wall(records):
    """First send to last "done" frame, as the client saw them."""
    if not records:
        return 0.0
    return max(r["end"] for r in records) - min(r["start"] for r in records)


def run_serve(ctx):
    times, records, _, hwm_kb = serve_pass(ctx, "mix", SETUP_REPEATS)
    return {
        "setup_s": metric(statistics.median(times), "s"),
        "wall_s": metric(loop_wall(records), "s"),
        "peak_rss_mb": metric(hwm_kb / 1024.0, "MB"),
    }


# ---------------------------------------------------------------------
# Traced run


def bench_json_cells(outdir, benches):
    cells = []
    for name in benches:
        path = Path(outdir) / f"BENCH_{name}.json"
        with contextlib.suppress(OSError, ValueError):
            cells += json.loads(path.read_text()).get("cells", [])
    return cells


def traced_regen(ctx, tracer, workload, golden, metrics):
    """The workload's bench set with IBS_OBS=1 and one span per bench
    process; returns the set's wall seconds."""
    tag = f"traced-{workload}"
    with tracer.span(f"{workload} set", "perfbench", workload) as parent:
        bench_set = regen_pass(ctx, workload, golden,
                               child_env(IBS_OBS=1), tag)
    for r in bench_set.runs:
        tracer.add(r["name"], "bench", workload, parent["id"],
                   r["start"], r["end"])
        metrics[f"bench.{r['name']}.wall_s"] = metric(r["end"] - r["start"], "s")
    covered = sum(r["end"] - r["start"] for r in bench_set.runs)
    coverage = covered / bench_set.wall
    metrics[f"obs.span_coverage.{workload}"] = metric(coverage, "ratio")
    ctx.count(1, [] if coverage >= 0.95 else
              [f"{workload}: bench spans cover only {coverage:.3f} of "
               "the set's wall time"])
    cpu = sum(r["cpu_s"] for r in bench_set.runs)
    util = cpu / (bench_set.wall * THREADS)
    if workload == "regen_sweeps":
        metrics["host.cpu_s"] = metric(cpu, "s")
        metrics["host.cpu_util"] = metric(util, "ratio")
        cells = bench_json_cells(ctx.outdir / tag, REGEN_SWEEPS)
        collapsed = sum(1 for c in cells if c["timing"].get("collapsed"))
        rates = [c["timing"]["instructions_per_second"] for c in cells
                 if c["timing"].get("instructions_per_second")]
        metrics["sim.sweep.cells"] = metric(len(cells), "count")
        metrics["sim.sweep.collapsed_frac"] = metric(
            collapsed / len(cells) if cells else 0.0, "ratio")
        metrics["sim.cell.instr_per_s"] = metric(
            statistics.median(rates) if rates else 0.0, "1/s")
    else:
        metrics["host.regen_loops.cpu_util"] = metric(util, "ratio")
    return bench_set.wall


def traced_serve(ctx, tracer, metrics):
    """serve_mix with one span per request; returns the loop's wall."""
    with tracer.span("serve_mix pass", "perfbench", "serve_mix") as parent:
        _, records, stats, _ = serve_pass(ctx, "traced-mix", 2)
    for r in records:
        tracer.add(f"request {r['index']}", "serve", "serve_mix",
                   parent["id"], r["start"], r["end"])
    done = [r for r in records if r["ok"]]
    if not done:
        return 0.0
    wall = loop_wall(records)
    latency = [1e3 * (r["end"] - r["start"]) for r in done]
    server = [1e3 * r["server_s"] for r in done]
    queue = [1e3 * (r["end"] - r["start"] - r["server_s"]) for r in done]
    for name, values, q in (("serve.req_p50_ms", latency, 50),
                            ("serve.req_p99_ms", latency, 99),
                            ("serve.server_ms_p50", server, 50),
                            ("serve.server_ms_p99", server, 99),
                            ("serve.queue_ms_p50", queue, 50)):
        try:
            metrics[name] = metric(percentile(values, q), "ms")
        except ValueError as e:  # the failed requests are counted
            log(f"{name} not reported: {e}")
    metrics["serve.throughput_rps"] = metric(len(done) / wall, "1/s")
    metrics["serve.memo_hit_frac"] = metric(
        sum(r["memo_hit"] for r in done) / len(done), "ratio")
    metrics["serve.bytes_per_req"] = metric(
        sum(r["bytes"] for r in done) / len(done), "B")
    memo = (stats or {}).get("memo", {})
    counters = (stats or {}).get("counters", {})
    metrics["serve.memo_evictions"] = metric(memo.get("evictions", 0), "count")
    metrics["serve.rejected"] = metric(counters.get("rejected", 0), "count")
    return wall


def traced_layers(ctx, tracer, metrics):
    out = ctx.outdir / "layers.json"
    with tracer.span("perfbench_probe layers", "perfbench", "layers") as parent:
        rc, _, _, _ = run_process([str(ctx.bins[PROBE]), "layers", str(out)],
                                  child_env(), ctx.outdir,
                                  ctx.outdir / "layers.probe")
    if rc != 0 or not out.exists():
        ctx.count(1, [f"perfbench_probe layers: exit code {rc}"])
        return
    ctx.count(1, [])
    probe = json.loads(out.read_text())
    tracer.adopt(probe["spans"], "layers", parent["id"])
    metrics.update(probe["metrics"])


def run_traced(ctx, workload):
    """Untraced pass of `workload` (the overhead's base), then a traced
    pass of every workload and of every layer call, so that each traced
    run reports every per-layer metric."""
    golden = load_golden(GOLDEN_STDOUT)
    if workload == "serve_mix":
        base = loop_wall(serve_pass(ctx, "base", 2)[1])
    else:
        base = regen_pass(ctx, workload, golden, child_env(), "base").wall

    tracer = Tracer()
    metrics = {}
    walls = {
        "regen_loops": traced_regen(ctx, tracer, "regen_loops", golden,
                                    metrics),
        "regen_sweeps": traced_regen(ctx, tracer, "regen_sweeps", golden,
                                     metrics),
        "serve_mix": traced_serve(ctx, tracer, metrics),
    }
    traced_layers(ctx, tracer, metrics)
    metrics["obs.trace_overhead_frac"] = metric(
        walls[workload] / base - 1.0 if base else 0.0, "ratio")
    for layer, seconds in sorted(tracer.self_seconds().items()):
        metrics[f"self_s.{layer}"] = metric(seconds, "s")
    (ctx.outdir / "spans.json").write_text(json.dumps(tracer.spans))
    return metrics


# ---------------------------------------------------------------------
# Golden files


def write_golden(bins, outdir):
    digests = {}
    bench_set = BenchSet(REGEN_LOOPS + REGEN_SWEEPS, bins, child_env(),
                         outdir / "golden").run()
    for r in bench_set.runs:
        if r["rc"] != 0:
            raise Refusal(f"{r['name']} exited {r['rc']}; no golden written")
        data = (bench_set.outdir / f"{r['name']}.out").read_bytes()
        digests[r["name"]] = {"sha256": hashlib.sha256(data).hexdigest(),
                              "bytes": len(data)}
    GOLDEN_STDOUT.parent.mkdir(exist_ok=True)
    GOLDEN_STDOUT.write_text(json.dumps(digests, indent=1, sort_keys=True)
                             + "\n")
    plan = outdir / "reference.plan"
    write_plan(plan, reference_plan())
    rc, _, _, _ = run_process([str(bins[PROBE]), "reference", str(plan),
                               str(GOLDEN_SERVE)], child_env(), outdir,
                              outdir / "reference.probe")
    if rc != 0:
        raise Refusal(f"perfbench_probe reference exited {rc}")
    log(f"wrote {GOLDEN_STDOUT} and {GOLDEN_SERVE}")


# ---------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate perfbench/golden from this code")
    args = parser.parse_args(argv)
    if not args.write_golden and not args.workload:
        parser.error("--workload is required")
    # A terminated run still stops (and waits for) what it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    run = ("golden" if args.write_golden else
           f"{args.workload}-s{args.seed}-t{args.trace}")
    outdir = WORK / "runs" / run
    try:
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        bins, digest = build()
        if args.write_golden:
            write_golden(bins, outdir)
            return 0
        info = fingerprint(TREE, args.seed, digest)
        ctx = Context(bins, args.seed, args.seconds, outdir)
        if args.trace:
            metrics = run_traced(ctx, args.workload)
        elif args.workload == "serve_mix":
            metrics = run_serve(ctx)
        else:
            metrics = run_regen(ctx, args.workload)
    except Refusal as e:
        log(f"refusing to run: {e}")
        return 2
    except RuntimeError as e:
        log(f"error: {e}")
        return 1
    result = {"correct": not ctx.failures, "attempted": ctx.attempted,
              "failed": len(ctx.failures), "metrics": metrics}
    (outdir / "result.json").write_text(json.dumps(
        {"fingerprint": info, "workload": args.workload,
         "trace": args.trace, "failures": ctx.failures, "result": result},
        indent=1))
    print("fingerprint " + json.dumps(info, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

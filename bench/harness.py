"""Request execution, measuring passes, correctness checks and metrics.

Imported by ``run.py`` once the thread variables are pinned and ``src`` is
on the import path.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lp2dual import SuiteConfig, run_suite
from oracles import check_trial
from spans import REQUEST, TO_JSON, SpanRecorder, check_spans, layer_metrics
from workloads import Cell, Request, RequestStream, rule_sizes

CLIENTS = 2
SLICES = 3
SETUP_PER_SLICE = 3
TAIL_BEYOND = 10

# glibc sysconf names for the unified L2 and L3 cache sizes.
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy
import lp2dual
for n in sys.argv[2:]:
    lp2dual.make_rule("midpoint", int(n))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Outcome:
    index: int
    cell: Cell
    seconds: float
    text: str | None
    error: str | None
    finished: float
    client: int = 0


# ---------------------------------------------------------------------------
# requests and passes
# ---------------------------------------------------------------------------


def execute(req: Request, recorder: SpanRecorder | None = None) -> Outcome:
    """Run one request; an exception is recorded as the request's failure."""
    cell = req.cell
    root = recorder.open(REQUEST, "run_suite", request=req.index) if recorder else None
    start = time.perf_counter()
    try:
        config = SuiteConfig(cell.suite, p_list=(cell.p,), grid_n=cell.grid,
                             trials=1, master_seed=req.master_seed)
        report = run_suite(config)
        inner = recorder.open(TO_JSON, "Report.to_json") if recorder else None
        try:
            text = report.to_json()
        finally:
            if inner:
                recorder.close(inner)
        error = None
    except Exception:  # a failing request is counted, not fatal to the run
        text, error = None, traceback.format_exc(limit=3)
    finally:
        if root:
            recorder.close(root)
    end = time.perf_counter()
    seconds = root.end - root.start if root else end - start
    return Outcome(req.index, cell, seconds, text, error, finished=end)


def serial_pass(stream: RequestStream, first: int = 0, seconds: float | None = None,
                count: int | None = None, recorder: SpanRecorder | None = None,
                finish_round: bool = True):
    """Closed loop with one client from request ``first``.

    Runs ``count`` requests, or starts requests for ``seconds``; with
    ``finish_round`` it then goes on to the end of the current round, so
    every cell of the workload gets the same number of requests.
    """
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < count if count is not None else (
        time.perf_counter() - start < seconds
        or (finish_round and (first + len(outcomes)) % len(stream.cells))
    ):
        outcomes.append(execute(stream[first + len(outcomes)], recorder))
    return outcomes, time.perf_counter() - start


def parallel_pass(stream: RequestStream, first: int, count: int):
    """Requests ``first`` to ``first + count - 1`` of the stream, from ``CLIENTS`` threads.

    Returns the outcomes in request order and the summed rate of the
    clients, each client's rate running to its own last completion, so the
    idle end of the client that ran out of work first does not count.
    """
    lock = threading.Lock()
    next_index = [first]
    outcomes = []

    def client(cid: int) -> None:
        while True:
            with lock:
                i = next_index[0]
                if i >= first + count:
                    return
                next_index[0] += 1
            out = execute(stream[i])
            out.client = cid
            with lock:
                outcomes.append(out)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        for future in [pool.submit(client, c) for c in range(CLIENTS)]:
            future.result()
    rate = 0.0
    for c in range(CLIENTS):
        mine = [o for o in outcomes if o.client == c]
        if mine:
            rate += len(mine) / (max(o.finished for o in mine) - start)
    outcomes.sort(key=lambda o: o.index)
    return outcomes, rate


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def check_outcomes(passes: dict) -> tuple[int, int, list]:
    """Oracle, pass-flag and cross-pass byte checks over every executed request.

    Returns (attempted, failed, failure records).  The first pass is the
    reference; a later pass fails a request whose trial payload differs.
    """
    attempted = failed = 0
    failures = []
    reference = {}
    oracle = {}
    for pass_name, outcomes in passes.items():
        for o in outcomes:
            attempted += 1
            reasons = []
            if o.error is not None:
                reasons.append(o.error)
            else:
                payload = json.loads(o.text)
                trials = json.dumps(payload["trials"], sort_keys=True).encode()
                digest = hashlib.sha256(trials).hexdigest()
                if o.index not in oracle:
                    oracle[o.index] = check_trial(o.cell.suite, o.cell.grid, payload["trials"][0])
                reasons.extend(oracle[o.index])
                if reference.setdefault(o.index, digest) != digest:
                    reasons.append("trial payload differs between passes")
            if reasons:
                failed += 1
                failures.append({"pass": pass_name, "index": o.index, "cell": o.cell.key,
                                 "reasons": reasons})
    return attempted, failed, failures


# ---------------------------------------------------------------------------
# metrics and details
# ---------------------------------------------------------------------------


def tail_latency(samples_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Nearest rank: the sample at sorted position n - 11 has exactly ten
    samples above it.  With fewer than 21 samples that position lies below
    the median, and the median is reported instead, at percentile 50.
    """
    ordered = sorted(samples_ms)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(workload: str, src: Path, repeats: int) -> list[float]:
    """Seconds to import numpy and lp2dual and build the rules, per fresh process."""
    sizes = [str(n) for n in rule_sizes(workload)]
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(src), *sizes],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def per_cell(outcomes: list[Outcome]) -> dict:
    """Request count and latency sub-totals of each (suite, p, grid) cell."""
    cells = defaultdict(lambda: {"requests": 0, "ms_total": 0.0})
    for o in outcomes:
        entry = cells[o.cell.key]
        entry["requests"] += 1
        entry["ms_total"] += 1e3 * o.seconds
    for entry in cells.values():
        entry["ms_mean"] = entry["ms_total"] / entry["requests"]
    return dict(sorted(cells.items()))


def environment(root: Path, thread_vars, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def sysconf(name):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "l2_bytes": sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": sysconf(_SC_LEVEL3_CACHE_SIZE),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }


def _git_commit(root: Path) -> str | None:
    """Commit checked out at ``root``; None outside a repository or without git.

    The search for ``.git`` stops at ``root``, so a checkout that is not a
    repository does not report the commit of a repository around it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def run_end_to_end(workload: str, stream: RequestStream, seconds: float, src: Path):
    """Warm-up, then set-up, serial and par2 slices in turn; returns (values, counts, detail).

    The serial pass is cut into ``SLICES`` slices of ``seconds / (2 * SLICES)``
    each, every one followed by the par2 pass over the same requests, so both
    passes sample the machine over the whole run rather than one half each.
    The set-up processes run before each slice for the same reason: on a
    shared host the speed drifts over tens of seconds, and set-up measured
    in one burst at the start would read that drift rather than its cost.
    """
    for req in stream.warmup():
        execute(req)
    setup, serial, par = [], [], []
    serial_wall = par_busy = 0.0
    peak_rss_mb = 0.0
    for k in range(SLICES):
        setup += measure_setup(workload, src, SETUP_PER_SLICE)
        outs, wall = serial_pass(stream, first=len(serial), seconds=seconds / (2 * SLICES),
                                 finish_round=k == SLICES - 1)
        if k == 0:
            # Read before any par2 slice: how far two concurrent requests'
            # peaks overlap depends on thread scheduling.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pouts, rate = parallel_pass(stream, len(serial), len(outs))
        serial += outs
        serial_wall += wall
        par += pouts
        par_busy += len(pouts) / rate
    latencies = [1e3 * o.seconds for o in serial]
    tail, tail_pct = tail_latency(latencies)
    attempted, failed, failures = check_outcomes({"serial": serial, "par2": par})
    values = {
        "setup_s": statistics.median(setup),
        "trials_per_s": len(serial) / serial_wall,
        "trial_ms.p50": statistics.median(latencies),
        "trial_ms.tail": tail,
        "trials_per_s.par2": len(par) / par_busy,
        "fail_frac": failed / attempted,
        "pass_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "setup_s_samples": setup,
        "trial_ms_tail_percentile": tail_pct,
        "trial_ms_samples": len(latencies),
        "serial_wall_s": serial_wall,
        "par2_requests": len(par),
        "per_cell_serial": per_cell(serial),
        "per_cell_par2": per_cell(par),
        "failures": failures[:20],
    }
    return values, {"attempted": attempted, "failed": failed, "correct": failed == 0}, detail


def run_traced(workload: str, stream: RequestStream, seconds: float, span_file: Path):
    """Untraced serial pass, then the same requests traced; returns (values, counts, detail)."""
    for req in stream.warmup():
        execute(req)
    plain, plain_wall = serial_pass(stream, seconds=seconds / 2)
    recorder = SpanRecorder()
    unreplaced = recorder.install()
    try:
        traced, traced_wall = serial_pass(stream, count=len(plain), recorder=recorder)
    finally:
        recorder.uninstall()
    attempted, failed, failures = check_outcomes({"untraced": plain, "traced": traced})
    values = layer_metrics(recorder.spans, len(traced))
    values["trace.overhead"] = traced_wall / plain_wall - 1.0
    attributed = sum(v for k, v in values.items()
                     if k.endswith(("_ms", ".ms")) and not k.startswith("trace."))
    residual = attributed - values["trace.request_ms"]
    faults = unreplaced + check_spans(recorder.spans)
    if recorder.foreign_calls:
        faults.append(f"{recorder.foreign_calls} spans opened off the tracing thread")
    if abs(residual) > 1e-6 * values["trace.request_ms"]:
        faults.append(f"self times miss the request time by {residual} ms")
    if faults:
        failures.append({"pass": "traced", "reasons": faults[:20]})
    span_file.parent.mkdir(exist_ok=True)
    span_file.write_text(json.dumps([s.to_dict() for s in recorder.spans]))
    detail = {
        "requests": len(traced),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "self_time_residual_ms": residual,
        "span_count": len(recorder.spans),
        "span_file": span_file.name,
        "per_cell_traced": per_cell(traced),
        "failures": failures[:20],
    }
    counts = {"attempted": attempted, "failed": failed, "correct": failed == 0 and not faults}
    return values, counts, detail

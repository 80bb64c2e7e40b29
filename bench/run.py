"""Benchmark of lp2dual verification trials, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload {ratio,pairs,fine} --seed N --seconds S --trace {0,1}

One request is one trial: ``run_suite`` on a one-trial ``SuiteConfig`` and
``Report.to_json()``, the path ``lp2dual verify`` takes.  The workloads and
their request streams are defined in ``workloads.py``; the metric names and
units come from ``BENCHMARK.json``.  BLAS and OpenMP thread counts are pinned
to one before numpy is imported.

``--trace 0`` measures the end-to-end metrics:

* one warm-up request per suite, discarded;
* ``setup_s``: median over fresh processes of the time to import numpy and
  lp2dual and build the workload's quadrature rules, three processes before
  each slice below;
* the serial pass, a closed loop with one client that starts requests for
  ``S / 2`` seconds and then finishes the current round of the workload
  (``trials_per_s``, ``trial_ms.p50``, ``trial_ms.tail``; the tail is the
  highest percentile with at least ten samples beyond it, floored at the
  median);
* the ``par2`` pass, the serial pass's requests sent again from two client
  threads (``trials_per_s.par2``).  The two passes alternate in three
  slices, each par2 slice repeating the serial slice before it, so both
  sample the machine's speed over the whole run;
* ``peak_rss_mb``, the peak resident set of this process at the end of the
  first serial slice, before any two requests have run concurrently.

``--trace 1`` runs an untraced serial pass for ``S / 2`` seconds, then sends
the same requests again with every public layer function wrapped by the span
recorder of ``spans.py``, and reports per-request layer metrics and the
tracing overhead.  The spans are written to ``.bench_out/``.

Every request's trial must pass, match the numpy oracles of ``oracles.py``
where one exists, and produce the same trial payload bytes in both passes;
anything else counts as a failed request (``fail_frac``, printed with the
metrics, and its complement ``pass_frac``) and makes ``correct`` false.  The
exit code is 0 whenever a result is printed; ``correct`` and ``failed``
carry the verdict.  The last line of standard output is the JSON result;
the line before it holds the details: environment, per-cell request counts
and latency sub-totals, failures.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (SRC / "lp2dual" / "__init__.py").is_file():
        return _fail(f"no lp2dual sources under {SRC}")
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return _fail(f"{spec_file} not found")
    spec = json.loads(spec_file.read_text())

    sys.path.insert(0, str(SRC))
    import lp2dual

    if Path(lp2dual.__file__).resolve().parent != (SRC / "lp2dual").resolve():
        return _fail(f"imported lp2dual from {lp2dual.__file__}, not from {SRC}")
    import harness
    from workloads import WORKLOADS, RequestStream

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    stream = RequestStream(args.workload, args.seed)
    if args.trace:
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        values, counts, detail = harness.run_traced(args.workload, stream, args.seconds, span_file)
        declared = spec["per_layer"]
        printed = {m["name"]: m["unit"] for m in declared}
    else:
        values, counts, detail = harness.run_end_to_end(args.workload, stream, args.seconds, SRC)
        declared = spec["end_to_end"]
        printed = {m["name"]: m["unit"] for m in declared} | {"fail_frac": "fraction"}
    detail.update(environment=harness.environment(ROOT, THREAD_VARS, args.workload, args.seed),
                  trace=args.trace, metrics=values)

    for name, unit in printed.items():
        print(f"{args.workload:6s} {name:48s} {values[name]:14.6g} {unit}")
    print(json.dumps(detail, sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": counts["correct"], "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

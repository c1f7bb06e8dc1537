"""Benchmark of lfmspec: three workloads, one process, planted answers.

Run from the root of a checkout:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 bench/run.py --workload triage --seed 1 --seconds 12 --trace 0

Workloads: triage, galerkin, cli (see README.md).  The run repeats whole
rounds of the workload's operations until --seconds have passed, checks
every output against the oracles in oracles.py, and prints one JSON line
last: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics from span tracing.
Spans, results and scratch files go under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread unless the command says otherwise; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 5
MIN_TRACE_ROUNDS = 4  # two traced and two untraced, for the overhead
MIN_OPS = 40  # the median of fewer operations would not be steady
IMPORT_CODE = ("import time; t = time.perf_counter(); import lfmspec.cli; "
               "print(repr(time.perf_counter() - t))")


def import_seconds() -> float:
    """Time for a fresh interpreter to import lfmspec.cli, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def percentile_ms(values, q: float) -> float:
    return 1000.0 * float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(wl, rounds, setup: list[float]) -> dict:
    ops = [op for r in rounds for op in r["ops"]]
    times = [op.seconds for op in ops]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (percentile_ms(times, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(wl, tracer, rounds, imports: list[float]) -> dict:
    from cliwork import FORMS

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    n = len(traced)
    own = tracer.self_times()
    dur = tracer.durations()
    counts: dict[str, float] = {}
    for r in rounds:
        for op in r["ops"]:
            for k, v in op.counts.items():
                counts[k] = counts.get(k, 0.0) + v / len(rounds)

    def calls(form, prefix):
        return wl.calls_per_main(form, prefix) if wl.name == "cli" else 0.0

    def busy(name):
        return (own.get(name, 0.0) / n, "s")

    def pct(name, q):
        return (percentile_ms(dur.get(name, []), q), "ms")

    out = {
        "maps.validate_self_map.busy_s": busy("maps.validate_self_map"),
        "maps.validate_self_map.p50_ms": pct("maps.validate_self_map", 50),
        "maps.validate_self_map.samples": (counts.get("maps.validate_self_map.samples", 0.0), "count"),
        "classify.classify.busy_s": busy("classify.classify"),
        "classify.classify.p50_ms": pct("classify.classify", 50),
        "spectra.spectrum.busy_s": busy("spectra.spectrum"),
        "spectra.spectrum.p90_ms": pct("spectra.spectrum", 90),
        "spectra.discretize.busy_s": busy("spectra.discretize"),
        "spectra.essential_radius_estimate.busy_s": busy("spectra.essential_radius_estimate"),
        "spectra.essential_radius_estimate.failed": (
            counts.get("spectra.essential_radius_estimate.failed", 0.0), "count"),
        "series.build_compression.dense.busy_s": busy("series.build_compression.dense"),
        "series.build_compression.general.busy_s": busy("series.build_compression.general"),
        "series.build_compression.sparse.busy_s": busy("series.build_compression.sparse"),
        "series.compression_spectrum.busy_s": busy("series.compression_spectrum"),
        "series.eigenfunction_residual.eigvec.busy_s": busy("series.eigenfunction_residual.eigvec"),
        "series.eigenfunction_residual.binomial.busy_s": busy("series.eigenfunction_residual.binomial"),
        "series.eigenfunction_residual.verify_eigen.busy_s": busy(
            "series.eigenfunction_residual.verify_eigen"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.main.compress-json.build_calls": (
            calls("compress-json", "series.build_compression"), "count"),
        "cli.main.verify-eigen.residual_calls": (
            calls("verify-eigen", "series.eigenfunction_residual"), "count"),
    }
    for form in FORMS:
        wall = [op.seconds for r in rounds for op in r["ops"] if op.label.startswith("cli.%s." % form)]
        out["cli.%s.p50_ms" % form] = (percentile_ms(wall, 50), "ms")
        out["cli.main.%s.p50_ms" % form] = pct("cli.main." + form, 50)
    traced_s = statistics.median(r["inproc"] for r in traced)
    plain_s = statistics.median(r["inproc"] for r in plain)
    out["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    return out


def make_workload(name: str, workdir: str):
    if name == "triage":
        from triage import Triage

        return Triage()
    if name == "galerkin":
        from galerkin import Galerkin

        return Galerkin()
    from cliwork import Cli

    return Cli(ROOT, workdir)


def run(args, workdir: str) -> dict:
    import lfmspec as L
    from spans import Tracer

    wl = make_workload(args.workload, workdir)
    setup, imports = [], []
    for _ in range(SETUP_REPS):
        imp = import_seconds()
        t = time.perf_counter()
        wl.build(L, args.seed)
        setup.append(imp + time.perf_counter() - t)
        imports.append(imp)
    wl.prepare()
    # one untimed round first: the first calls take the page faults of the
    # process's first large allocations, about a tenth of a galerkin round.
    # A cli operation is a fresh process, which nothing here warms.
    if wl.name != "cli":
        wl.round(None)

    tracer = Tracer() if args.trace else None
    if tracer is not None and wl.name == "cli":
        wl.in_process = True
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        try:
            ops = wl.round(tracer if traced else None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        inproc = wl.main_seconds if wl.name == "cli" else sum(op.seconds for op in ops)
        rounds.append({"ops": ops, "traced": traced, "inproc": inproc})
        # stop where the run ends nearest --seconds: the next round would
        # overshoot by more than half a round
        elapsed = time.perf_counter() - start
        if (elapsed * (1.0 + 0.5 / len(rounds)) >= args.seconds
                and sum(len(r["ops"]) for r in rounds) >= MIN_OPS
                and (tracer is None or len(rounds) >= MIN_TRACE_ROUNDS)):
            break

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op.problems]
    unexpected = [op for op in failed if op.fault is None]
    for op in unexpected[:10]:
        print("bench: %s: %s" % (op.label, "; ".join(op.problems)[:400]), file=sys.stderr)
    metrics = per_layer(wl, tracer, rounds, imports) if tracer else end_to_end(wl, rounds, setup)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if tracer is not None:
        tracer.write(os.path.join(OUT, "trace-%s.json" % tag))
    faults: dict[str, int] = {}
    for op in failed:
        key = op.fault or "unexpected"
        faults[key] = faults.get(key, 0) + 1
    detail = {"rounds": len(rounds), "ops_per_round": len(rounds[0]["ops"]), "faults": faults,
              "setup_s": setup, "ops": [[i, op.label, op.seconds, bool(op.problems)]
                                        for i, r in enumerate(rounds) for op in r["ops"]]}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, **detail}, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6g %s" % (name, value, unit))
    print("rounds %d, failed by fault: %s" % (len(rounds), json.dumps(faults)))
    return {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("triage", "galerkin", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lfmspec", "__init__.py")):
        print("bench: no lfmspec sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

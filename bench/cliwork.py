"""Workload ``cli``: fresh ``python -m lfmspec.cli`` processes, one at a time.

Map files, written per seed: dense maps fixing 0 for N = 1 and N = 2 (where
compression eigenvalues are known exactly), a conjugated elliptic map with
a boundary fixed point (N = 2), a conjugated parabolic map (N = 1), a
conjugated hyperbolic map (N = 3) and a conjugated map that is not a
self-map (N = 2).  Two files do not depend on the seed: JSON maps with a
NaN and an Infinity entry, which must end in one ``error:`` line and exit
code 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

import oracles as O
from common import Op, interleave

FAULT_NONFINITE = "non-finite map JSON ends in a traceback (maps.py, cli.py:381-407)"
DEFAULT_DEGREE = 8
CHILD_TIMEOUT_S = 120
NORMS = dict(s=0.5, nu=0.5, kmax=30)
FORMS = ("validate", "classify", "spectrum", "radius", "compress", "compress-json",
         "verify-eigen", "norms", "export")
# form -> map files it runs on.  Every form runs once on the NaN or the
# Infinity file, and a round stays short (about 23 processes of ~0.3 s, plus
# one N = 2 verify-eigen of ~1.5 s) so that a run holds two whole rounds.
PLAN = {
    "validate": ("n2_boundary", "n3_hyperbolic", "n2_non_self", "nan"),
    "classify": ("n1_parabolic", "n3_hyperbolic", "nan"),
    "spectrum": ("n2_boundary", "n1_parabolic", "inf"),
    # N <= 2 only: for N = 3 the estimator can overflow on some seeds
    "radius": ("n1_origin", "n2_boundary", "inf"),
    "compress": ("n2_origin", "nan"),
    "compress-json": ("n2_origin", "inf"),
    "verify-eigen": ("n2_origin", "nan"),
    "norms": ("n1_origin", "nan"),
    "export": ("n3_hyperbolic", "inf"),
}
NAN_MAP = '{"N": 1, "A": [[[NaN, 0]]], "B": [[0, 0]], "C": [[0, 0]], "d": [1, 0]}\n'
INF_MAP = ('{"N": 2, "A": [[[0.5, 0], [0, 0]], [[0, 0], [Infinity, 0]]], '
           '"B": [[0, 0], [0, 0]], "C": [[0, 0], [0, 0]], "d": [1, 0]}\n')


def argv_for(form: str, path: str, out: str) -> list[str]:
    sub = "compress" if form == "compress-json" else form
    argv = [sub, path, "--out", out]
    if form == "compress-json":
        argv += ["--format", "json"]
    if form == "norms":
        argv += ["--s", str(NORMS["s"]), "--nu", str(NORMS["nu"]), "--kmax", str(NORMS["kmax"])]
    return argv


def _pair(v):
    return complex(float(v[0]), float(v[1]))


def _json_pair(x) -> list[float]:
    x = complex(x)
    return [x.real, x.imag]


def map_json(m: np.ndarray) -> str:
    a, b, c, d = O.blocks(m)
    return json.dumps({"N": a.shape[0], "A": [[_json_pair(x) for x in row] for row in a],
                       "B": [_json_pair(x) for x in b], "C": [_json_pair(x) for x in c],
                       "d": _json_pair(d)})


class Cli:
    name = "cli"

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # when set, each round also times cli.main(argv) in this process
        self.in_process = False
        self.main_seconds = 0.0
        # traced main calls on finite maps: calls, and spans below them, per form
        self.main_calls: dict = {}

    def build(self, L, seed: int) -> None:
        rng = np.random.default_rng(seed)

        def conj(p):
            return O.conjugate(p, O.random_centre(p.n, rng))

        self.plants = {
            "n1_origin": O.dense_origin_map(1, rng),
            "n2_origin": O.dense_origin_map(2, rng),
            "n2_boundary": conj(O.plant("elliptic_boundary_fixed", 2, rng)),
            "n1_parabolic": conj(O.plant("parabolic", 1, rng)),
            "n3_hyperbolic": conj(O.plant("hyperbolic_one_fixed", 3, rng)),
            "n2_non_self": O.conjugate(O.non_self_map(2, rng), O.random_centre(2, rng, 0.1, 0.4)),
        }
        self.paths = {}
        for name, p in self.plants.items():
            self.paths[name] = self._write(name, map_json(p.m))
        self.paths["nan"] = self._write("nan", NAN_MAP)
        self.paths["inf"] = self._write("inf", INF_MAP)
        self.out = os.path.join(self.workdir, "out.txt")
        # load the handlers now, so the first in-process call pays no import
        # and tracing can swap the names the cli module holds
        from lfmspec import cli

        self.cli = cli

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def prepare(self) -> None:
        self.expected = {
            name: O.expected_compression_eigenvalues(self.plants[name].eigenvalues, n, DEFAULT_DEGREE)
            for name, n in (("n1_origin", 1), ("n2_origin", 2))
        }

    def round(self, tracer=None) -> list:
        ops = []
        self.main_seconds = 0.0
        for form, name in interleave([(f, n) for f in FORMS for n in PLAN[f]]):
            ops.append(self._subprocess(form, name))
            if self.in_process:
                self.main_seconds += self._in_process(form, name, tracer)
        return ops

    def _subprocess(self, form: str, name: str) -> Op:
        if os.path.exists(self.out):
            os.remove(self.out)
        cmd = [sys.executable, "-m", "lfmspec.cli"] + argv_for(form, self.paths[name], self.out)
        fault = FAULT_NONFINITE if name in ("nan", "inf") else None
        counts: dict = {}
        t = time.perf_counter()
        try:
            # run() kills and reaps the child when the timeout expires
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        seconds = time.perf_counter() - t
        if proc is None:
            problems = ["no exit within %d s" % CHILD_TIMEOUT_S]
        else:
            try:
                problems = self._check(form, name, proc, counts)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = ["unreadable %s output: %s: %s" % (form, type(exc).__name__, exc)]
        return Op("cli.%s.%s" % (form, name), seconds, problems, fault, counts)

    def _in_process(self, form: str, name: str, tracer) -> float:
        """Wall time of cli.main(argv) inside this process (no import cost)."""
        sid = None
        if tracer is not None:
            tracer.tag = "verify_eigen" if form == "verify-eigen" else "cli"
            sid = tracer.open("cli.main." + form)
            first = len(tracer.spans)
        sink = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                self.cli.main(argv_for(form, self.paths[name], self.out))
        except Exception:  # noqa: BLE001 - the fault is checked in the subprocess run
            pass
        finally:
            seconds = time.perf_counter() - t
            if sid is not None:
                tracer.close(sid)
        if sid is not None and name not in ("nan", "inf"):
            calls = self.main_calls.setdefault(form, {"calls": 0})
            calls["calls"] += 1
            for span in tracer.spans[first:]:
                calls[span[0]] = calls.get(span[0], 0) + 1
        return seconds

    def calls_per_main(self, form: str, prefix: str) -> float:
        """Mean number of spans named prefix* below one traced main(argv) call
        of the form on a finite map."""
        calls = self.main_calls.get(form, {"calls": 0})
        hits = sum(v for k, v in calls.items() if k.startswith(prefix))
        return hits / calls["calls"] if calls["calls"] else 0.0

    # -- checks

    def _check(self, form: str, name: str, proc, counts) -> list:
        if name in ("nan", "inf"):
            lines = proc.stderr.strip().splitlines()
            ok = (proc.returncode == 1 and len(lines) == 1 and lines[0].startswith("error:")
                  and "Traceback" not in proc.stderr)
            return [] if ok else ["exit %d with %d stderr lines: %s" % (
                proc.returncode, len(lines), lines[-1] if lines else "")]
        p = self.plants[name]
        if form == "spectrum" and p.kind in O.UNSUPPORTED:
            if proc.returncode != 3:
                return ["exit %d for an unsupported kind" % proc.returncode]
            err = json.loads(proc.stdout)["error"]
            return O.check_unsupported(p, err["kind"], err["spectral_radius"])
        want = 2 if form == "validate" and not p.self_map else 0
        if proc.returncode != want:
            return ["exit %d, expected %d: %s" % (proc.returncode, want, proc.stderr.strip()[-200:])]
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        if form in ("compress", "export"):
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            values = np.array([complex(float(r[0]), float(r[1])) for r in rows])
            if form == "compress":
                return O.check_multiset(self.expected[name], values)
            return O.check_spectrum_cloud(p, values)
        res = json.loads(text)["result"]
        if form == "validate":
            counts["maps.validate_self_map.samples"] = res["samples"]
            witness = None if res["witness"] is None else [_pair(v) for v in res["witness"]]
            return O.check_validation(p, res["ok"], witness)
        if form == "classify":
            fp = res.get("interior_fixed_point")
            eigs = [_pair(v) for v in res.get("eigenvalues", [])]
            return O.check_classification(p, res["kind"], res["alpha"], eigs,
                                          None if fp is None else np.array([_pair(v) for v in fp]))
        if form == "spectrum":
            return O.check_spectrum(p, res)
        if form == "radius":
            bad = []
            if res["kind"] != p.kind or abs(res["spectral_radius"] - p.radius) > O.TOL_VALUE * p.radius:
                bad.append("radius report kind %r radius %r" % (res["kind"], res["spectral_radius"]))
            closed = res["essential_radius_closed_form"]
            if (closed is None) != (p.ess is None) or (
                    closed is not None and abs(closed - p.ess) > O.TOL_VALUE * p.ess):
                bad.append("closed-form essential radius %r, planted %r" % (closed, p.ess))
            if (res["estimate"] is None) != (p.kind == "elliptic_interior_only"):
                bad.append("estimate present: %r" % (res["estimate"] is not None))
            return bad
        if form == "compress-json":
            bad = O.check_multiset(self.expected[name], [_pair(v) for v in res["eigenvalues"]])
            basis = [tuple(b) for b in res["basis"]["basis"]]
            if basis != O.grlex(p.n, DEFAULT_DEGREE):
                bad.append("basis order differs from graded lex-descending")
            elif not np.allclose(res["basis"]["norms"], [O.monomial_norm(b) for b in basis],
                                 rtol=1e-12, atol=0):
                bad.append("monomial norms differ from the lgamma formula")
            return bad
        if form == "verify-eigen":
            rows = res["rows"]
            bad = O.check_multiset(self.expected[name], [_pair(r["eigenvalue"]) for r in rows])
            worst = max(r["residual"] for r in rows)
            if worst > O.EIGVEC_RESIDUAL_MAX or not all(r["pass"] for r in rows):
                bad.append("largest eigenpair residual %.3g" % worst)
            return bad
        if form == "norms":
            ratios = [O.sobolev_ratio(k, NORMS["s"], NORMS["nu"]) for k in range(NORMS["kmax"] + 1)]
            got = [r["ratio"] for r in res["rows"]]
            if not np.allclose(got, ratios, rtol=1e-12) or not np.allclose(
                    res["interval"], [min(ratios), max(ratios)], rtol=1e-12):
                return ["norm ratios differ from the closed form"]
            return []
        raise ValueError("no check for form %r" % form)

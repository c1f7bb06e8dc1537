"""Digest of the command line's output on a fixed corpus of maps.

    python tools/cli_digest.py TREE [--against OTHER]

TREE is the root of an lfmspec checkout; the package is imported from its
``src``.  The corpus is built by this checkout's ``bench`` modules, which
are imported and not changed: the triage plants of seeds 1-3 (every kind
for N = 1, 2, 3, each conjugated, and the maps that are not self-maps), the
12 fixed estimator probes, and the NaN and Infinity maps of the cli
workload; and, made here, three dense maps fixing 0 in three variables,
whose degree blocks at degree 12 (up to 91 x 91) the ``verify-eigen+cap``
form reaches through the whole matrix and the ``compress+cap`` form through
the blocks alone, as no bench map fixes 0 with a non-diagonal A at N = 3;
two maps whose fixed set is a slice, diag(1, 0.5) z (a line through 0)
and the identity of the 3-ball (the whole ball), as no bench map has one;
one hyperbolic self-map whose normal form removes a vertical shift of
1e6 (``siegel.vertical_shift.n2``); alpha z + 1 - alpha conjugated at
0.3 + 0.1i for alpha = 0.1, 0.05 and 0.01 (``small_dilation.*``), on
which the estimator's J-form pairing cancels down to about alpha;
and seven maps that do not send the open ball into itself (``outside.*``):
177 maps in all.  Six of the seven, like the triage maps that are not
self-maps, stop at the command line's self-map gate, and
``tests/test_classify.py`` reaches the library refusals that they reached
before the gate; the seventh, the constant 1, has sup |phi| = 1, passes
the gate and is refused by ``classify`` as a degenerate Cayley
conjugation.  Every subcommand runs in this process on every map, with
its default flags and with non-default ones (16 forms, 2832 runs), and one
line

    name form exit-code sha256

is printed per run.  The hash covers stdout, stderr, the text of an
exception that escapes ``cli.main``, and the category and message of every
warning (not its file and line).  An escaped exception is also named on
stderr, and once every line is printed the tool exits 1 if any run had one:
every input must end in a report or an ``error:`` line, never a traceback.
Two trees behave the same on the corpus when their digests are identical.
With ``--against OTHER`` the tool also runs this script on OTHER in a child
process, alongside its own runs, and prints only the lines that differ (OTHER's
marked ``-``, TREE's ``+``) and a count; it exits 1 when any differ:

    python tools/cli_digest.py . --against ../parent

One BLAS thread is set before numpy loads.  The map files are written to a
temporary directory, which is the working directory during the runs and is
removed at the end.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEEDS = (1, 2, 3)
ORIGIN_SEEDS = (0, 1, 2)
# form -> subcommand argv after the map path
FORMS = {
    "validate": ["validate"],
    "validate+tol": ["validate", "--tol", "1e-3"],
    "classify": ["classify"],
    "spectrum": ["spectrum"],
    "radius": ["radius"],
    "compress": ["compress"],
    "compress+json": ["compress", "--degree", "5", "--format", "json"],
    "compress+cap": ["compress", "--degree", "12"],
    "verify-eigen": ["verify-eigen"],
    "verify-eigen+csv": ["verify-eigen", "--degree", "3", "--tol", "1e-12", "--format", "csv"],
    "verify-eigen+cap": ["verify-eigen", "--degree", "12", "--format", "csv"],
    "norms": ["norms"],
    "norms+flags": ["norms", "--s", "1.5", "--nu", "0.25", "--kmax", "12"],
    "export": ["export"],
    "export+res": ["export", "--resolution", "16"],
    "export+json": ["export", "--resolution", "8", "--format", "json"],
}


def corpus(L) -> dict[str, str]:
    """Map name -> map JSON text."""
    import cliwork
    import numpy as np
    import triage

    maps = {}
    for seed in SEEDS:
        wl = triage.Triage()
        wl.build(L, seed)
        plants = [p for p, _, _, probe in wl.items if not probe]
        for i, p in enumerate(plants):
            maps["s%d.%02d.%s.n%d" % (seed, i, p.name, p.n)] = cliwork.map_json(p.m)
    for i, (p, _) in enumerate(triage.probes()):
        maps["probe.%02d.%s.n%d" % (i, p.name, p.n)] = cliwork.map_json(p.m)
    for seed in ORIGIN_SEEDS:
        maps["origin.%d.dense.n3" % seed] = cliwork.map_json(dense_origin_matrix(seed))
    maps["slice.n2"] = cliwork.map_json(np.diag([1.0, 0.5, 1.0]).astype(complex))
    maps["identity.n3"] = cliwork.map_json(np.eye(4, dtype=complex))
    maps["siegel.vertical_shift.n2"] = cliwork.map_json(vertical_shift_matrix())
    for alpha in (0.1, 0.05, 0.01):
        f = L.LinearFractionalMap([[alpha]], [1 - alpha], [0], 1)
        g = L.conjugated(f, L.ball_automorphism_to_origin(np.array([0.3 + 0.1j])))
        maps["small_dilation.%g.n1" % alpha] = cliwork.map_json(g.matrix)
    for name, m in non_self_maps().items():
        maps["outside." + name] = cliwork.map_json(m)
    maps["nan"] = cliwork.NAN_MAP
    maps["inf"] = cliwork.INF_MAP
    return maps


def dense_origin_matrix(seed: int):
    """Associated matrix of A z / (1 + <z, c>) on the 3-ball, A a seeded
    dense complex matrix scaled to norm 0.6 and c a seeded vector of length
    0.3, so |phi| <= 0.6 / 0.7 < 1."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    m = np.eye(4, dtype=complex)
    m[:3, :3] = 0.6 * a / np.linalg.norm(a, 2)
    m[3, :3] = 0.3 * np.conj(c) / np.linalg.norm(c)
    return m


def vertical_shift_matrix():
    """Associated matrix of the self-map of the 2-ball whose Cayley transport
    at e_1 is (zeta, omega) -> ((zeta + 1 + 100i) / 0.9999, 0.5 omega /
    0.9999): hyperbolic with one boundary fixed point, whose normal form
    removes a vertical shift of 1e6.  Its exterior fixed point lies 2e-6
    from e_1, so rounding the matrix differently (the constructor rotating a
    complex d, or 0.9999 divided out at another step) can move the half-plane
    scaling off the real axis by 1e-6, which classify refuses; the matrix is
    made as the tests make it and scaled to a real d here."""
    import numpy as np

    cayley = np.array([[1, 0, 1], [0, 1, 0], [-1, 0, 1]], dtype=complex)  # the ball onto the Siegel half-plane
    inverse = np.array([[0.5, 0, -0.5], [0, 1, 0], [0.5, 0, 0.5]], dtype=complex)
    m = inverse @ (np.array([[1, 0, 1 + 100j], [0, 0.5, 0], [0, 0, 0.9999]], dtype=complex) / 0.9999) @ cayley
    return m * (abs(m[2, 2]) / m[2, 2])


def non_self_maps() -> dict:
    """Name -> associated matrix of maps that do not send the open ball into
    itself."""
    import numpy as np

    def fixing(points, eigenvalues):
        # the matrix with eigenvector (p, 1) for each p in points
        p = np.array([list(pt) + [1] for pt in points], dtype=complex).T
        return p @ np.diag(np.asarray(eigenvalues, dtype=complex)) @ np.linalg.inv(p)

    cayley = np.array([[1, 1], [-1, 1]], dtype=complex)  # the disk onto the right half-plane
    lam = 0.5 + 0.6j
    return {
        "expanding.n1": np.array([[2, 0], [0, 1]], dtype=complex),  # 2 z
        "v.n1": np.array([[0.5, 0], [-0.6, 1]], dtype=complex),  # 0.5 z / (1 - 0.6 z)
        "constant.n1": np.array([[0, 1], [0, 1]], dtype=complex),  # 1
        "two-boundary.n2": fixing([(0, 0), (1, 0), (0, 1)], [1, 0.5, 0.6]),
        "three-boundary.n2": fixing([(1, 0), (-1, 0), (0, 1)], [0.3, 1, 0.5]),
        # zeta -> zeta / (0.5 + 20i) - 100i on the half-plane
        "angular.n1": np.linalg.inv(cayley) @ np.array([[1 / (0.5 + 20j), -100j], [0, 1]]) @ cayley,
        "dilation.n1": np.array([[lam, 0], [lam - 1, 1]]),  # lam z / (1 - (1 - lam) z)
    }


def run(cli, argv: list[str]) -> tuple[int, str, str | None]:
    """Exit code and sha256 of one in-process ``cli.main(argv)``, and the
    exception that escaped it, if one did."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    # a fresh warnings registry per run, as in a fresh process, and every warning kept
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - a traceback is an outcome to record
                code = 1
                escaped = "%s: %s" % (type(exc).__name__, exc)
                err.write("Traceback: %s\n" % escaped)
    notes = "".join("%s: %s\n" % (w.category.__name__, w.message) for w in caught)
    text = "\0".join((out.getvalue(), err.getvalue(), notes))
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest(), escaped


def digests(tree: str, emit) -> int:
    """Pass the digest line of every run on TREE, imported in this process,
    to emit; return the number of runs whose exception escaped cli.main (each
    named on stderr), or 1 if lfmspec was not imported from TREE."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path[:0] = [src, BENCH]
    import lfmspec
    from lfmspec import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(lfmspec.__file__))) != src:
        print("lfmspec was not imported from %s" % src, file=sys.stderr)
        return 1
    maps = corpus(lfmspec)
    escapes = 0
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in maps.items():
                with open(name + ".json", "w", encoding="utf-8") as fh:
                    fh.write(text)
            for name in maps:
                for form, args in FORMS.items():
                    code, digest, escaped = run(cli, [args[0], name + ".json"] + args[1:])
                    emit("%s %s %s %s" % (name, form, code, digest))
                    if escaped is not None:
                        escapes += 1
                        print("escaped cli.main: %s %s: %s" % (name, form, escaped), file=sys.stderr)
        finally:
            os.chdir(here)
    if escapes:
        print("%d runs ended in an exception that escaped cli.main" % escapes, file=sys.stderr)
    return escapes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/cli_digest.py")
    parser.add_argument("tree", help="root of the lfmspec checkout to run")
    parser.add_argument("--against", metavar="OTHER", help="print only the runs whose line differs on OTHER")
    args = parser.parse_args(argv)
    if args.against is None:
        return 1 if digests(args.tree, lambda line: print(line, flush=True)) else 0
    # the other tree runs in a child process, at the same time as this one
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__), args.against],
                             stdout=subprocess.PIPE, text=True)
    ours: list[str] = []
    escapes = digests(args.tree, ours.append)
    theirs = child.communicate()[0].splitlines()
    if not theirs:
        print("no runs on %s (exit code %d)" % (args.against, child.returncode), file=sys.stderr)
        return 1
    other, mine = ({line.rsplit(" ", 2)[0]: line for line in lines} for lines in (theirs, ours))
    differ = 0
    for name_form in list(other) + [k for k in mine if k not in other]:
        if other.get(name_form) != mine.get(name_form):
            differ += 1
            for mark, line in (("-", other.get(name_form)), ("+", mine.get(name_form))):
                if line is not None:
                    print(mark, line)
    print("%d of %d runs differ" % (differ, len(other.keys() | mine.keys())))
    return 1 if differ or escapes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command line interface: exit codes, payload shapes, determinism, and
file/stdin plumbing. Everything drives lfmspec.cli.main(argv) directly."""

import io
import json
import math
import os
import sys
import time

import numpy as np
import pytest

from lfmspec import (
    LinearFractionalMap,
    ParameterConstraintViolated,
    compression_spectrum,
    eigenfunction_residual,
    map_from_json_dict,
    map_to_json_dict,
    series_from_vector,
)
from lfmspec.cli import EXIT_ERROR, EXIT_OK, EXIT_UNSUPPORTED, EXIT_VALIDATION, _emit_json, build_parser, main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def write_map(tmp_path, name, f):
    p = tmp_path / name
    p.write_text(json.dumps(map_to_json_dict(f)))
    return str(p)


@pytest.fixture
def disk_map(tmp_path):
    # z / (2 - z): boundary fixed elliptic
    return write_map(tmp_path, "disk.json", LinearFractionalMap([[1]], [0], [-1], 2))


@pytest.fixture
def affine_map(tmp_path):
    # (1 + z) / 2: hyperbolic, one fixed point
    return write_map(tmp_path, "affine.json", LinearFractionalMap([[0.5]], [0.5], [0], 1))


@pytest.fixture
def parabolic_map(tmp_path):
    return write_map(tmp_path, "para.json", LinearFractionalMap([[1]], [1], [-1], 3))


@pytest.fixture
def diag_map2(tmp_path):
    import numpy as np

    f = LinearFractionalMap(np.diag([0.5, 1 / 3]), [0, 0], [0, 0], 1)
    return write_map(tmp_path, "diag.json", f)


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(capsys, disk_map):
    code, out, _ = run(capsys, ["validate", disk_map])
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["tool"] == "lfmspec"
    assert rep["command"] == "validate"
    assert rep["result"]["ok"] is True


def test_validate_rejects_expansion(capsys, tmp_path):
    path = write_map(tmp_path, "bad.json", LinearFractionalMap([[2]], [0], [0], 1))
    code, out, _ = run(capsys, ["validate", path])
    assert code == EXIT_VALIDATION
    rep = json.loads(out)
    assert rep["result"]["ok"] is False
    w = rep["result"]["witness"]
    assert math.hypot(*w[0]) <= 1 + 1e-12  # witness lies in the closed ball


def test_invalid_map_shape_is_validation_error(capsys, tmp_path):
    p = tmp_path / "degenerate.json"
    # |d| == |C|: denominator vanishes on the sphere
    p.write_text(json.dumps({"N": 1, "A": [[[1, 0]]], "B": [[0, 0]], "C": [[1, 0]], "d": [1, 0]}))
    code, out, err = run(capsys, ["validate", str(p)])
    assert code == EXIT_VALIDATION
    assert "validation failure" in err


NAN_MAP = '{"N": 1, "A": [[[NaN, 0]]], "B": [[0, 0]], "C": [[0, 0]], "d": [1, 0]}'
INF_MAP = ('{"N": 2, "A": [[[0.5, 0], [0, 0]], [[0, 0], [Infinity, 0]]], '
           '"B": [[0, 0], [0, 0]], "C": [[0, 0], [0, 0]], "d": [1, 0]}')


@pytest.mark.parametrize("text", [NAN_MAP, INF_MAP], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["validate", "classify", "spectrum", "radius", "compress",
                                     "verify-eigen", "norms", "export"])
def test_non_finite_map_is_format_error(capsys, tmp_path, command, text):
    p = tmp_path / "nonfinite.json"
    p.write_text(text)
    code, out, err = run(capsys, [command, str(p)])
    assert code == EXIT_ERROR
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "finite" in err


GOOD_MAP = {"N": 2, "A": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], "B": [[0, 0], [0, 0]],
            "C": [[0, 0], [0, 0]], "d": [1, 0]}


@pytest.mark.parametrize("change, field", [
    (lambda m: [m], "object"),
    (lambda m: dict(m, N=0), "N must"),
    (lambda m: dict(m, N=True), "N must"),
    (lambda m: dict(m, N=1.5), "N must"),
    (lambda m: dict(m, A=[m["A"][0], m["A"][1][:1]]), "A row 1"),
    (lambda m: dict(m, B=m["B"][:1]), "B must"),
    (lambda m: dict(m, C=m["C"] + [[0, 0]]), "C must"),
    (lambda m: dict(m, A=[[[True, 0], [0, 0]], m["A"][1]]), "A[0][0]"),
    (lambda m: dict(m, B=[m["B"][0], ["1", 0]]), "B[1]"),
], ids=["list", "N0", "Ntrue", "Nfloat", "Arow", "B", "C", "bool-entry", "str-entry"])
def test_malformed_map_names_field(capsys, tmp_path, change, field):
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(change(GOOD_MAP)))
    code, out, err = run(capsys, ["classify", str(p)])
    assert code == EXIT_ERROR
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and field in err


def test_malformed_json_reports_position(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"N": 1, "A": [[[1, 0]]],')
    code, out, err = run(capsys, ["classify", str(p)])
    assert code == EXIT_ERROR
    assert "line" in err and "column" in err


# ---------------------------------------------------------------------------
# classify / spectrum


def test_classify_payload(capsys, disk_map):
    code, out, _ = run(capsys, ["classify", disk_map])
    assert code == EXIT_OK
    rep = json.loads(out)
    res = rep["result"]
    assert res["kind"] == "elliptic_boundary_fixed"
    assert res["automorphism"] is False
    assert res["boundary_fixed_points"][0]["dilation"] == pytest.approx(2.0)


def test_spectrum_payload(capsys, disk_map):
    code, out, _ = run(capsys, ["spectrum", disk_map])
    assert code == EXIT_OK
    rep = json.loads(out)
    s = rep["result"]
    assert s["kind"] == "elliptic_boundary_fixed"
    types = [c["type"] for c in s["components"]]
    assert "disk" in types
    disk = s["components"][types.index("disk")]
    assert disk["radius"] == pytest.approx(2 ** -0.5)


def test_spectrum_unsupported_exit_and_payload(capsys, parabolic_map):
    code, out, _ = run(capsys, ["spectrum", parabolic_map])
    assert code == EXIT_UNSUPPORTED
    payload = json.loads(out)
    err = payload["error"]
    assert err["kind"] == "parabolic"
    assert err["spectral_radius"] == pytest.approx(1.0)
    assert err["message"]


def test_classify_still_works_for_parabolic(capsys, parabolic_map):
    code, out, _ = run(capsys, ["classify", parabolic_map])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["kind"] == "parabolic"


# ---------------------------------------------------------------------------
# radius


def test_radius_agreement(capsys, affine_map):
    code, out, _ = run(capsys, ["radius", affine_map, "--nmax", "16"])
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    # N = 1, alpha = 1/2: closed form alpha^{-1/2}
    assert res["essential_radius_closed_form"] == pytest.approx(math.sqrt(2))
    assert res["agrees_within_5_percent"] is True
    assert res["estimate"]["n_max"] == 16
    assert res["estimate"]["roots"] == pytest.approx([math.sqrt(2)] * 16, rel=1e-12)
    assert res["estimate"]["spread"] < 1e-12


def test_radius_agreement_complex_conjugation(capsys, tmp_path):
    from lfmspec import ball_automorphism_to_origin, conjugated

    # z / (2 - z) conjugated at a complex centre: C is not real
    f = conjugated(LinearFractionalMap([[1]], [0], [-1], 2), ball_automorphism_to_origin([0.2 - 0.3j]))
    code, out, _ = run(capsys, ["radius", write_map(tmp_path, "cdisk.json", f)])
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["essential_radius_closed_form"] == pytest.approx(2 ** -0.5)
    assert res["agrees_within_5_percent"] is True
    assert len(res["estimate"]["roots"]) == 20
    assert res["estimate"]["spread"] < 1e-6


def test_radius_no_boundary_point(capsys, diag_map2):
    code, out, _ = run(capsys, ["radius", diag_map2, "--nmax", "8"])
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["estimate"] is None
    assert "estimate_note" in res


def test_radius_small_dilation_n3(capsys, tmp_path):
    import numpy as np

    # N = 3, alpha = 1/4: the estimate is alpha^(-3/2) = 8
    f = LinearFractionalMap(np.diag([0.25, 0.3, 0.3]), [0.75, 0, 0], [0, 0, 0], 1)
    code, out, _ = run(capsys, ["radius", write_map(tmp_path, "hyp3.json", f)])
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["essential_radius_closed_form"] == pytest.approx(0.25 ** -1.5)
    assert res["estimate"]["limit"] == pytest.approx(8.0, rel=1e-6)
    assert res["estimate_note"] is None


def test_radius_estimator_failure_is_reported(capsys, monkeypatch, affine_map):
    from lfmspec import NumericalInconsistency

    def broken(f, tau, n_max):
        raise NumericalInconsistency("angular derivative 0 at order 1 gives no finite positive root")

    monkeypatch.setattr("lfmspec.cli.essential_radius_estimate", broken)
    code, out, _ = run(capsys, ["radius", affine_map])
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["estimate"] is None
    assert res["estimate_note"].startswith("estimator failed: angular derivative")


def test_radius_solves_fixed_points_once(capsys, monkeypatch, disk_map):
    # the estimator's tau is read off classify, which solved the fixed points
    from lfmspec import fixed_points

    calls = []

    def counted(f):
        calls.append(f)
        return fixed_points(f)

    for module in ("lfmspec.maps", "lfmspec.classify"):  # the attribute lfmspec.classify is the function
        monkeypatch.setattr(sys.modules[module], "fixed_points", counted)
    code, out, _ = run(capsys, ["radius", disk_map])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["estimate"]["tau"] == [[1.0, 0.0]]
    assert len(calls) == 1


@pytest.mark.parametrize("nmax", ["1", "10001"])
def test_radius_checks_nmax_without_boundary_point(capsys, diag_map2, nmax):
    # the estimator does not run, but its n_max range is still checked
    code, out, err = run(capsys, ["radius", diag_map2, "--nmax", nmax])
    assert code == EXIT_ERROR
    assert out == "" and err.startswith("error:")


# ---------------------------------------------------------------------------
# compress / verify-eigen


def test_compress_csv_default(capsys, disk_map):
    code, out, _ = run(capsys, ["compress", disk_map, "--degree", "6"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "re,im"
    assert len(lines) == 8  # 7 eigenvalues + header
    top = [float(x) for x in lines[1].split(",")]
    assert top[0] == pytest.approx(1.0)


def test_compress_json_carries_basis(capsys, disk_map):
    code, out, _ = run(capsys, ["compress", disk_map, "--degree", "4", "--format", "json"])
    assert code == EXIT_OK
    rep = json.loads(out)
    res = rep["result"]
    assert res["basis"]["basis"][0] == [0]
    assert len(res["eigenvalues"]) == 5
    assert res["degree"] == 4


def test_compress_degree_cap(capsys, disk_map):
    code, out, err = run(capsys, ["compress", disk_map, "--degree", "200"])
    assert code == EXIT_ERROR
    assert "error" in err


def test_verify_eigen_rows(capsys, disk_map):
    code, out, _ = run(capsys, ["verify-eigen", disk_map, "--degree", "8"])
    assert code == EXIT_OK
    rows = json.loads(out)["result"]["rows"]
    assert rows
    for row in rows:
        assert row["residual"] < 1e-8
        assert row["pass"] is True


def test_compress_json_builds_once(capsys, disk_map, monkeypatch):
    # one pass over the diagonals of the blocks gives the eigenvalues (the
    # disk map fixes 0 and is in one variable, so A is diagonal); the basis
    # and the norms come from the shared tables, not from a second build, and
    # neither a block nor a map power of the whole matrix is made
    import lfmspec.series as series

    calls = []
    for name in ("_power_levels", "_diagonal_map_eigenvalues"):
        real = getattr(series, name)
        monkeypatch.setattr(series, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    code, _, _ = run(capsys, ["compress", disk_map, "--degree", "4", "--format", "json"])
    assert code == EXIT_OK
    assert calls == ["_diagonal_map_eigenvalues"]


@pytest.mark.parametrize("command", ["compress", "verify-eigen"])
def test_compression_refuses_non_self_map(capsys, tmp_path, command):
    import numpy as np

    # phi(z) = (z1 + z2, z1 + z2): sup |phi| = 2 over the ball
    path = write_map(tmp_path, "double.json", LinearFractionalMap(np.ones((2, 2)), [0, 0], [0, 0], 1))
    code, out, err = run(capsys, [command, path, "--degree", "4"])
    assert code == EXIT_VALIDATION
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("validation failure:") and "self-map" in err


@pytest.mark.parametrize("argv", [
    ["compress", "{disk}", "--degree", "-1"],
    ["verify-eigen", "{disk}", "--degree", "-1"],
    ["radius", "{affine}", "--nmax", "0"],
    ["radius", "{affine}", "--nmax", "1"],
    ["radius", "{affine}", "--nmax", "10001"],
    ["validate", "{disk}", "--tol", "nan"],
    ["validate", "{disk}", "--tol", "inf"],
    ["validate", "{disk}", "--tol=-inf"],
    ["verify-eigen", "{disk}", "--degree", "3", "--tol", "nan"],
    ["verify-eigen", "{disk}", "--degree", "3", "--tol", "inf"],
    ["norms", "{disk}", "--s", "nan"],
    ["norms", "{disk}", "--nu", "inf"],
    ["norms", "{disk}", "--kmax", "-1"],
    ["norms", "{disk}", "--kmax", "10001"],
    ["norms", "{disk}", "--s", "200"],
    ["norms", "{disk}", "--s", "1e308"],
    ["export", "{disk}", "--resolution", "0"],
    ["export", "{disk}", "--resolution", "-3"],
    ["export", "{disk}", "--resolution", "10000"],
])
def test_bad_numeric_flag_is_typed_error(capsys, disk_map, affine_map, argv):
    code, out, err = run(capsys, [a.format(disk=disk_map, affine=affine_map) for a in argv])
    assert code == EXIT_ERROR
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("n, b_scale", [(1, 0.0), (1, 0.2), (2, 0.0), (2, 0.2), (3, 0.0), (3, 0.2)])
def test_verify_eigen_residuals_match_eigenfunction_residual(capsys, tmp_path, n, b_scale):
    # sup |phi| <= (|A| + |B|) / (d - |C|) = 0.5 / 0.9 < 1; b_scale > 0 moves
    # phi(0) off 0, so the compression is not triangular
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = LinearFractionalMap(0.3 * a / np.linalg.norm(a, 2), b_scale * b / np.linalg.norm(b),
                            0.1 * c / np.linalg.norm(c), 1)
    degree = {1: 10, 2: 6, 3: 4}[n]
    path = write_map(tmp_path, "m.json", f)
    code, out, _ = run(capsys, ["verify-eigen", path, "--degree", str(degree)])
    assert code == EXIT_OK
    rows = json.loads(out)["result"]["rows"]
    with open(path, encoding="utf-8") as fh:
        f = map_from_json_dict(json.load(fh))  # the map as the command read it
    eigs, vecs, comp = compression_spectrum(f, degree, return_vectors=True)
    assert len(rows) == len(eigs)
    for k, row in enumerate(rows):
        ref = eigenfunction_residual(f, eigs[k], series_from_vector(comp, vecs[:, k]), degree)
        assert row["eigenvalue"] == [eigs[k].real, eigs[k].imag]
        assert abs(row["residual"] - ref) <= 1e-13
        assert row["pass"] is (ref <= 1e-8)


def test_verify_eigen_degree_12_three_variables_is_fast(capsys, tmp_path):
    # one product gives all 455 residuals in ~0.3 s; recomposing the series
    # per eigenpair took ~5 s.  The better of two runs: the first large eig of
    # a process can pay a one-off BLAS start-up second.
    a = np.array([[0.5, 0.1, 0.0], [0.0, 0.4j, 0.1], [0.05, 0.0, -0.3]])
    f = LinearFractionalMap(a, [0, 0, 0], [0.1, -0.05j, 0.05], 1)
    path = write_map(tmp_path, "dense3.json", f)
    times = []
    for _ in range(2):
        t = time.perf_counter()
        code, out, _ = run(capsys, ["verify-eigen", path, "--degree", "12"])
        times.append(time.perf_counter() - t)
        assert code == EXIT_OK
        assert len(json.loads(out)["result"]["rows"]) == math.comb(15, 3)
    assert min(times) < 1.0


def test_verify_eigen_passes_every_row_at_the_two_variable_cap(capsys, tmp_path):
    # A z / (1 - <z, c>) with dense A fixes 0: every eigenpair of the
    # compression is exact through the degree.  One eig of the whole
    # 351 x 351 matrix failed 98 of these rows (residual up to 0.56); the
    # eigenpairs from the degree blocks pass them all
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f = LinearFractionalMap(0.6 * a / np.linalg.norm(a, 2), [0, 0], 0.3 * c / np.linalg.norm(c), 1)
    code, out, _ = run(capsys, ["verify-eigen", write_map(tmp_path, "dense2.json", f), "--degree", "25"])
    assert code == EXIT_OK
    rows = json.loads(out)["result"]["rows"]
    assert len(rows) == math.comb(27, 2)
    assert all(row["pass"] for row in rows)
    assert max(row["residual"] for row in rows) <= 1e-14


def test_verify_eigen_three_variables_default_degree(capsys, tmp_path):
    import numpy as np

    # A z / (<z, c> + 1): fixes 0, so the compression is block triangular and
    # every eigenpair of it is an eigenpair of the operator through degree 8
    a = np.array([[0.5, 0.1, 0.0], [0.0, 0.4j, 0.1], [0.05, 0.0, -0.3]])
    f = LinearFractionalMap(a, [0, 0, 0], [0.1, -0.05j, 0.05], 1)
    code, out, _ = run(capsys, ["verify-eigen", write_map(tmp_path, "dense3.json", f)])
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert res["degree"] == 8
    assert len(res["rows"]) == math.comb(11, 3)
    assert all(row["pass"] for row in res["rows"])


# ---------------------------------------------------------------------------
# norms / export


def test_norms_table(capsys, disk_map):
    code, out, _ = run(capsys, ["norms", disk_map, "--s", "1.0", "--nu", "0.5", "--kmax", "10"])
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert len(res["rows"]) == 11
    lo, hi = res["interval"]
    assert lo <= 1.0 <= hi
    for row in res["rows"]:
        assert lo - 1e-12 <= row["ratio"] <= hi + 1e-12


def test_export_cloud_csv(capsys, disk_map):
    code, out, _ = run(capsys, ["export", disk_map, "--resolution", "16"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,component_index"
    assert len(lines) > 5


def test_export_json_points(capsys, disk_map):
    code, out, _ = run(capsys, ["export", disk_map, "--resolution", "8", "--format", "json"])
    assert code == EXIT_OK
    res = json.loads(out)["result"]
    assert all(len(p) == 3 for p in res["points"])


def test_export_unsupported_map(capsys, parabolic_map):
    code, out, _ = run(capsys, ["export", parabolic_map])
    assert code == EXIT_UNSUPPORTED


# ---------------------------------------------------------------------------
# parser

FLAGS = {  # each subcommand's options besides the map path
    "validate": {"--tol", "--out"},
    "classify": {"--out"},
    "spectrum": {"--out"},
    "radius": {"--nmax", "--out"},
    "compress": {"--degree", "--format", "--out"},
    "verify-eigen": {"--degree", "--tol", "--format", "--out"},
    "norms": {"--s", "--nu", "--kmax", "--out"},
    "export": {"--resolution", "--format", "--out"},
}
VALUES = {"--tol": ("1e-6", 1e-6), "--out": ("out.txt", "out.txt"), "--nmax": ("5", 5), "--degree": ("3", 3),
          "--format": ("json", "json"), "--s": ("1", 1.0), "--nu": ("0", 0.0), "--kmax": ("4", 4),
          "--resolution": ("8", 8)}


@pytest.mark.parametrize("command", sorted(FLAGS))
@pytest.mark.parametrize("flag", sorted(VALUES))
def test_subcommand_takes_exactly_its_flags(command, flag):
    text, value = VALUES[flag]
    argv = [command, "m.json", flag, text]
    if flag in FLAGS[command]:
        assert getattr(build_parser().parse_args(argv), flag[2:]) == value
    else:
        with pytest.raises(ParameterConstraintViolated, match="unrecognized arguments: " + flag):
            build_parser().parse_args(argv)


def test_subcommand_defaults():
    defaults = {
        "validate": {"tol": 1e-9},
        "classify": {},
        "spectrum": {},
        "radius": {"nmax": 20},
        "compress": {"degree": 8, "format": "csv"},
        "verify-eigen": {"degree": 8, "tol": 1e-8, "format": "json"},
        "norms": {"s": 0.5, "nu": 0.5, "kmax": 30},
        "export": {"resolution": 128, "format": "csv"},
    }
    for command, want in defaults.items():
        args = vars(build_parser().parse_args([command, "m.json"]))
        assert {k: v for k, v in args.items() if k not in ("command", "map", "handler")} == dict(want, out=None)


ECHO_CASES = [
    (["validate", "--tol", "1e-3"], {"tol": 1e-3}),
    (["classify"], {}),
    (["spectrum"], {}),
    (["radius", "--nmax", "7"], {"nmax": 7}),
    (["compress", "--degree", "3", "--format", "json"], {"degree": 3}),
    (["verify-eigen", "--degree", "3", "--tol", "1e-6"], {"degree": 3, "tol": 1e-6}),
    (["norms", "--s", "1.5", "--nu", "0.25", "--kmax", "12"], {"s": 1.5, "nu": 0.25, "kmax": 12}),
    (["export", "--resolution", "8", "--format", "json"], {"resolution": 8}),
]


@pytest.mark.parametrize("argv, flags", ECHO_CASES, ids=[argv[0] for argv, _ in ECHO_CASES])
def test_report_echoes_exactly_the_given_flags(capsys, tmp_path, disk_map, argv, flags):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, [argv[0], disk_map] + argv[1:] + ["--out", str(dest)])
    assert code == EXIT_OK and out == ""
    rep = json.loads(dest.read_text())
    assert rep["command"] == argv[0]
    # key order too: the options in the order the parser declares them
    assert list(rep["flags"].items()) == list(flags.items())


def test_parser_takes_every_cli_workload_argv(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from cliwork import FORMS, argv_for

    for form in FORMS:
        args = build_parser().parse_args(argv_for(form, "m.json", "out.txt"))
        assert args.out == "out.txt"


@pytest.mark.parametrize("argv", [
    ["classify", "{disk}", "--degree", "4"],
    ["spectrum", "{disk}", "--format", "csv"],
    ["classify", "{disk}", "--format", "csv", "--degree", "3"],
    ["validate", "{disk}", "--nmax", "3"],
    ["norms", "{disk}", "--tol", "1e-3"],
    ["compress", "{disk}", "--degree", "abc"],
    ["export", "{disk}", "--format", "xml"],
    ["validate"],
    ["bogus", "{disk}"],
    [],
])
def test_usage_error_is_one_error_line(capsys, disk_map, argv):
    code, out, err = run(capsys, [a.format(disk=disk_map) for a in argv])
    assert code == EXIT_ERROR
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


# ---------------------------------------------------------------------------
# plumbing


def test_out_flag_writes_file(capsys, tmp_path, disk_map):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, ["classify", disk_map, "--out", str(dest)])
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(dest.read_text())["result"]["kind"] == "elliptic_boundary_fixed"


def test_stdin_dash(capsys, monkeypatch):
    f = LinearFractionalMap([[1]], [0], [-1], 2)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(map_to_json_dict(f))))
    code, out, _ = run(capsys, ["classify", "-"])
    assert code == EXIT_OK
    assert json.loads(out)["result"]["kind"] == "elliptic_boundary_fixed"


def test_json_writer_contract():
    value = {"none": None, "flags": [True, False], "text": "é", "int": 7,
             "floats": [0.1, -0.0, 1.0, 1e300, 5e-324], "pair": (1, 2.5), "nested": {"k": {"deep": []}, 3: "x"}}
    assert _emit_json(value) == (
        '{"none":null,"flags":[true,false],"text":"\\u00e9","int":7,'
        '"floats":[0.10000000000000001,-0,1,1.0000000000000001e+300,4.9406564584124654e-324],'
        '"pair":[1,2.5],"nested":{"k":{"deep":[]},"3":"x"}}')
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _emit_json({"x": [bad]})
    for bad in (np.int64(1), np.bool_(True), 1j):
        with pytest.raises(TypeError, match="cannot serialize"):
            _emit_json({"x": [bad]})


def test_output_is_deterministic(capsys, disk_map):
    _, out1, _ = run(capsys, ["spectrum", disk_map])
    _, out2, _ = run(capsys, ["spectrum", disk_map])
    assert out1 == out2


def test_report_echo_is_reusable(capsys, tmp_path, disk_map):
    _, out, _ = run(capsys, ["classify", disk_map])
    echoed = json.loads(out)["map"]
    p = tmp_path / "echo.json"
    p.write_text(json.dumps(echoed))
    code, out2, _ = run(capsys, ["classify", str(p)])
    assert code == EXIT_OK
    assert json.loads(out2)["result"]["kind"] == "elliptic_boundary_fixed"


def test_missing_file_is_error(capsys, tmp_path):
    code, _, err = run(capsys, ["classify", str(tmp_path / "nope.json")])
    assert code == EXIT_ERROR
    assert err

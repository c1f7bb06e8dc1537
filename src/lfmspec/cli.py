"""Command-line front end.

Every JSON artifact is a self-contained run report: it echoes the
normalized input map, the tool version, and the subcommand's options under
``flags`` (the tolerance of ``validate`` and ``verify-eigen``, the degree,
``nmax``, the norm parameters or the resolution; ``classify`` and
``spectrum`` take none and echo ``{}``), so feeding the echoed map back
reproduces the result.  JSON output is deterministic: fixed key order,
floats with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .classify import classification_to_json_dict, classify
from .errors import (
    BallMapError,
    DenominatorVanishes,
    MapFormatError,
    NoBoundaryFixedPoint,
    NotASelfMap,
    NumericalInconsistency,
    ParameterConstraintViolated,
    UnsupportedMapClass,
)
from .maps import TOL_VALIDATION, _c2pair, map_from_json_dict, map_to_json_dict, validate_self_map
from .series import (
    build_compression,
    compression_basis_json,
    compression_eigenvalues,
    compression_spectrum,
    compression_to_csv,
    eigenfunction_residual,
    norm_equivalence_interval,
    series_from_vector,
    _norm_factors,
)
from .spectra import (
    cloud_to_csv,
    essential_radius_closed_form,
    essential_radius_estimate,
    spectral_radius,
    spectrum,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
DEFAULT_DEGREE = 8  # series truncation degree of compress and verify-eigen


# ---------------------------------------------------------------------------
# deterministic JSON


def _emit_json(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not np.isfinite(obj):
            raise ValueError("non-finite number in JSON output")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, complex):
        _emit([obj.real, obj.imag], parts)
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    elif isinstance(obj, (np.floating,)):
        _emit(float(obj), parts)
    elif isinstance(obj, (np.integer,)):
        _emit(int(obj), parts)
    elif isinstance(obj, np.complexfloating):
        _emit(complex(obj), parts)
    else:
        raise TypeError("cannot serialize %r" % type(obj))


# ---------------------------------------------------------------------------
# I/O helpers


def _load_map(path: str):
    if path == "-":
        text = sys.stdin.read()
        source = "<stdin>"
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        source = path
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapFormatError(
            "invalid JSON in %s at line %d column %d: %s"
            % (source, exc.lineno, exc.colno, exc.msg)
        ) from exc
    return map_from_json_dict(obj)


def _load_self_map(path: str):
    """Load a map and refuse it unless it sends the ball into itself."""
    f = _load_map(path)
    rep = validate_self_map(f)
    if not rep.ok:
        raise NotASelfMap("not a self-map of the ball: sup |phi| = %.12g exceeds 1 + %g"
                          % (rep.max_modulus, rep.tol))
    return f


def _write_artifact(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(command: str, f, flags: dict, result: dict) -> dict:
    return {
        "tool": "lfmspec",
        "version": __version__,
        "command": command,
        "map": map_to_json_dict(f),
        "flags": flags,
        "result": result,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    f = _load_map(args.map)
    tol = args.tol if args.tol is not None else TOL_VALIDATION
    rep = validate_self_map(f, tol=tol)
    result = {
        "ok": rep.ok,
        "max_modulus": rep.max_modulus,
        "witness": _c2pair(rep.witness),
        "samples": rep.samples,
        "tol": rep.tol,
        "denominator_margin": rep.denominator_margin,
    }
    text = _emit_json(_report("validate", f, {"tol": tol}, result)) + "\n"
    _write_artifact(text, args.out)
    return EXIT_OK if rep.ok else EXIT_VALIDATION


def _cmd_classify(args) -> int:
    f = _load_map(args.map)
    cl = classify(f)
    result = classification_to_json_dict(cl)
    text = _emit_json(_report("classify", f, {}, result)) + "\n"
    _write_artifact(text, args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    f = _load_map(args.map)
    s = spectrum(f)
    text = _emit_json(_report("spectrum", f, {}, s.to_json_dict())) + "\n"
    _write_artifact(text, args.out)
    return EXIT_OK


def _cmd_radius(args) -> int:
    f = _load_map(args.map)
    cl = classify(f)
    n_max = args.nmax if args.nmax is not None else 20
    sr = spectral_radius(f, cl)
    closed = essential_radius_closed_form(cl)
    estimate = None
    note = None
    try:
        est = essential_radius_estimate(f, n_max=n_max)
        estimate = {
            "limit": est.limit,
            "roots": list(est.roots),
            "spread": est.spread,
            "tau": _c2pair(est.tau),
            "n_max": est.n_max,
        }
    except NoBoundaryFixedPoint:
        note = "no boundary fixed point: the contact-point estimator does not apply"
    except NumericalInconsistency as exc:
        note = "estimator failed: %s" % exc
    agree = None
    disagreement = None
    if estimate is not None and closed is not None:
        disagreement = abs(estimate["limit"] - closed) / abs(closed)
        agree = bool(disagreement <= 0.05)
    result = {
        "kind": cl.kind.value,
        "spectral_radius": sr,
        "essential_radius_closed_form": closed,
        "estimate": estimate,
        "estimate_note": note,
        "relative_disagreement": disagreement,
        "agrees_within_5_percent": agree,
    }
    text = _emit_json(_report("radius", f, {"nmax": n_max}, result)) + "\n"
    _write_artifact(text, args.out)
    return EXIT_OK


def _cmd_compress(args) -> int:
    f = _load_self_map(args.map)
    degree = args.degree if args.degree is not None else DEFAULT_DEGREE
    comp = build_compression(f, degree)
    eigs = compression_eigenvalues(comp)
    if args.format == "json":
        result = {
            "degree": degree,
            "eigenvalues": _c2pair(eigs),
            "basis": compression_basis_json(comp),
        }
        text = _emit_json(_report("compress", f, {"degree": degree}, result)) + "\n"
    else:
        text = compression_to_csv(eigs)
    _write_artifact(text, args.out)
    return EXIT_OK


def _cmd_verify_eigen(args) -> int:
    f = _load_self_map(args.map)
    degree = args.degree if args.degree is not None else DEFAULT_DEGREE
    tol = args.tol if args.tol is not None else 1e-8
    eigs, vecs, comp = compression_spectrum(f, degree, return_vectors=True)
    rows = []
    for k in range(eigs.shape[0]):
        func = series_from_vector(comp, vecs[:, k])
        res = eigenfunction_residual(f, eigs[k], func, degree)
        rows.append({
            "eigenvalue": _c2pair(eigs[k]),
            "modulus": abs(complex(eigs[k])),
            "residual": res,
            "pass": bool(res <= tol),
        })
    if args.format == "csv":
        lines = ["re,im,residual"]
        for r in rows:
            lines.append("%s,%s,%s" % (
                format(r["eigenvalue"][0], ".17g"),
                format(r["eigenvalue"][1], ".17g"),
                format(r["residual"], ".17g"),
            ))
        text = "\n".join(lines) + "\n"
    else:
        result = {"degree": degree, "tol": tol, "rows": rows}
        text = _emit_json(_report("verify-eigen", f, {"degree": degree, "tol": tol}, result)) + "\n"
    _write_artifact(text, args.out)
    return EXIT_OK


def _cmd_norms(args) -> int:
    f = _load_map(args.map)
    s = args.s
    nu = args.nu
    k_max = args.kmax
    lo, hi = norm_equivalence_interval(s, nu, k_max)
    rows = [{"k": k, "weighted_factor": wf, "sobolev_factor": sf, "ratio": r}
            for k, (wf, sf, r) in enumerate(_norm_factors(s, nu, k_max))]
    result = {
        "s": s,
        "nu": nu,
        "c": 2.0 * s - 2.0 * nu - 1.0,
        "k_max": k_max,
        "interval": [lo, hi],
        "rows": rows,
    }
    text = _emit_json(_report("norms", f, {"s": s, "nu": nu, "kmax": k_max}, result)) + "\n"
    _write_artifact(text, args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    f = _load_map(args.map)
    s = spectrum(f)
    resolution = args.resolution if args.resolution is not None else 128
    if args.format == "json":
        values, index = s.discretize(resolution)
        result = {
            "resolution": resolution,
            "points": [[v.real, v.imag, int(i)] for v, i in zip(values, index)],
        }
        text = _emit_json(_report("export", f, {"resolution": resolution}, result)) + "\n"
    else:
        text = cloud_to_csv(s, resolution)
    _write_artifact(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lfmspec",
        description="Classify linear fractional self-maps of the complex unit ball "
        "and compute spectra of the induced composition operators.",
    )
    p.add_argument("--version", action="version", version="lfmspec " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("map", help="path to a map JSON file, or - for stdin")
        sp.add_argument("--degree", type=int, default=None, help="series truncation degree")
        sp.add_argument("--nmax", type=int, default=None, help="largest iterate order for the estimator")
        sp.add_argument("--tol", type=float, default=None, help="tolerance (meaning depends on the subcommand)")
        sp.add_argument("--resolution", type=int, default=None, help="points per circle when discretizing")
        sp.add_argument("--out", default=None, help="write the artifact to this path instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default=None, help="artifact format")
        sp.set_defaults(handler=handler)
        return sp

    add("validate", _cmd_validate, "sup of |phi| over the ball (J-form certificate) against 1 + tol")
    add("classify", _cmd_classify, "fixed points, class, and normal form")
    add("spectrum", _cmd_spectrum, "exact spectrum of the composition operator")
    add("radius", _cmd_radius, "spectral radius, closed-form essential radius, and the contact-point estimate")
    add("compress", _cmd_compress, "eigenvalues of the Galerkin compression")
    add("verify-eigen", _cmd_verify_eigen, "residuals of the compression eigenpairs")
    sp_norms = add("norms", _cmd_norms, "per-degree weighted vs Sobolev norm factors")
    sp_norms.add_argument("--s", type=float, default=0.5, help="smoothness parameter")
    sp_norms.add_argument("--nu", type=float, default=0.5, help="grading weight exponent")
    sp_norms.add_argument("--kmax", type=int, default=30, help="largest degree in the table")
    add("export", _cmd_export, "discretized spectrum as a plot-ready point cloud")

    return p


def _format_default(args) -> None:
    # compress/export default to csv artifacts; everything else to json
    if getattr(args, "format", None) is None:
        args.format = "csv" if args.command in ("compress", "export") else "json"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _format_default(args)
    try:
        for name in ("tol", "s", "nu"):  # the float flags; None when not given
            if not np.isfinite(getattr(args, name, None) or 0.0):
                raise ParameterConstraintViolated("--%s must be a finite number" % name)
        return args.handler(args)
    except (DenominatorVanishes, NotASelfMap) as exc:
        print("validation failure: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except UnsupportedMapClass as exc:
        payload = {
            "error": {
                "kind": exc.kind,
                "message": str(exc),
                "spectral_radius": exc.spectral_radius,
            }
        }
        print(_emit_json(payload))
        return EXIT_UNSUPPORTED
    except (OSError, BallMapError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

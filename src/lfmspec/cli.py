"""Command-line front end.

Each subcommand takes a map path, ``--out`` and only the options its handler
reads (``build_parser``); any other option or a malformed value is a usage
error, which ends as every input error does: one ``error:`` line, exit 1.

Every JSON artifact is a self-contained run report: it echoes the
normalized input map, the tool version, and the subcommand's options under
``flags`` (``classify`` and ``spectrum`` take none and echo ``{}``), so
feeding the echoed map back reproduces the result.  JSON output is
deterministic: fixed key order, floats with 17 significant digits.
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
from .maps import TOLERANCES, _c2pair, map_from_json_dict, map_to_json_dict, validate_self_map
from .series import (
    build_compression,
    compression_basis_json,
    compression_eigenvalues,
    compression_spectrum,
    compression_to_csv,
    norm_equivalence_interval,
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
    rep = validate_self_map(f, tol=args.tol)
    result = {
        "ok": rep.ok,
        "max_modulus": rep.max_modulus,
        "witness": _c2pair(rep.witness),
        "samples": rep.samples,
        "tol": rep.tol,
        "denominator_margin": rep.denominator_margin,
    }
    text = _emit_json(_report("validate", f, {"tol": args.tol}, result)) + "\n"
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
    sr = spectral_radius(f, cl)
    closed = essential_radius_closed_form(cl)
    estimate = None
    note = None
    try:
        est = essential_radius_estimate(f, n_max=args.nmax)
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
    text = _emit_json(_report("radius", f, {"nmax": args.nmax}, result)) + "\n"
    _write_artifact(text, args.out)
    return EXIT_OK


def _cmd_compress(args) -> int:
    f = _load_self_map(args.map)
    comp = build_compression(f, args.degree)
    eigs = compression_eigenvalues(comp)
    if args.format == "json":
        result = {
            "degree": args.degree,
            "eigenvalues": _c2pair(eigs),
            "basis": compression_basis_json(comp),
        }
        text = _emit_json(_report("compress", f, {"degree": args.degree}, result)) + "\n"
    else:
        text = compression_to_csv(eigs)
    _write_artifact(text, args.out)
    return EXIT_OK


def _cmd_verify_eigen(args) -> int:
    f = _load_self_map(args.map)
    degree, tol = args.degree, args.tol
    eigs, vecs, comp = compression_spectrum(f, degree, return_vectors=True)
    # ||M v - lambda v|| / ||v|| in the orthonormal basis: eigenfunction_residual
    # of each eigenpair through the degree, from one product for all of them
    residuals = np.linalg.norm(comp.matrix @ vecs - vecs * eigs, axis=0) / np.linalg.norm(vecs, axis=0)
    if args.format == "csv":
        text = "re,im,residual\n" + "".join("%.17g,%.17g,%.17g\n" % (lam.real, lam.imag, res)
                                            for lam, res in zip(eigs, residuals))
    else:
        rows = [{
            "eigenvalue": _c2pair(lam),
            "modulus": abs(complex(lam)),
            "residual": float(res),
            "pass": bool(res <= tol),
        } for lam, res in zip(eigs, residuals)]
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
    if args.format == "json":
        values, index = s.discretize(args.resolution)
        result = {
            "resolution": args.resolution,
            "points": [[v.real, v.imag, int(i)] for v, i in zip(values, index)],
        }
        text = _emit_json(_report("export", f, {"resolution": args.resolution}, result)) + "\n"
    else:
        text = cloud_to_csv(s, args.resolution)
    _write_artifact(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors end as input errors do: one ``error:`` line, exit 1."""

    def error(self, message):
        raise ParameterConstraintViolated("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lfmspec",
        description="Classify linear fractional self-maps of the complex unit ball "
        "and compute spectra of the induced composition operators.",
    )
    p.add_argument("--version", action="version", version="lfmspec " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *options):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("map", help="path to a map JSON file, or - for stdin")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--out", default=None, help="write the artifact to this path instead of stdout")
        sp.set_defaults(handler=handler)

    def fmt(default: str):
        return "--format", dict(choices=("json", "csv"), default=default, help="artifact format")

    degree = "--degree", dict(type=int, default=8, help="series truncation degree")
    add("validate", _cmd_validate, "sup of |phi| over the ball (J-form certificate) against 1 + tol",
        ("--tol", dict(type=float, default=TOLERANCES.self_map, help="accept sup |phi| up to 1 + tol")))
    add("classify", _cmd_classify, "fixed points, class, and normal form")
    add("spectrum", _cmd_spectrum, "exact spectrum of the composition operator")
    add("radius", _cmd_radius, "spectral radius, closed-form essential radius, and the contact-point estimate",
        ("--nmax", dict(type=int, default=20, help="largest iterate order for the estimator")))
    add("compress", _cmd_compress, "eigenvalues of the Galerkin compression", degree, fmt("csv"))
    add("verify-eigen", _cmd_verify_eigen, "residuals of the compression eigenpairs", degree,
        ("--tol", dict(type=float, default=TOLERANCES.eigen_residual, help="largest residual that passes")),
        fmt("json"))
    add("norms", _cmd_norms, "per-degree weighted vs Sobolev norm factors",
        ("--s", dict(type=float, default=0.5, help="smoothness parameter")),
        ("--nu", dict(type=float, default=0.5, help="grading weight exponent")),
        ("--kmax", dict(type=int, default=30, help="largest degree in the table")))
    add("export", _cmd_export, "discretized spectrum as a plot-ready point cloud",
        ("--resolution", dict(type=int, default=128, help="points per circle when discretizing")), fmt("csv"))

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in ("tol", "s", "nu"):  # the float flags of the subcommands that have them
            if not np.isfinite(getattr(args, name, 0.0)):
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

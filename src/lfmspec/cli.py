"""Command-line front end.

Each subcommand takes a map path, ``--out`` and only the options its handler
reads (``build_parser``); any other option or a malformed value is a usage
error, which ends as every input error does: one ``error:`` line, exit 1.
Every subcommand but ``validate`` and ``norms`` refuses a map that does not
send the ball into itself before its handler runs: one ``validation
failure:`` line, exit 2.

A handler takes the loaded map and the parsed options and returns its
result: a dict for a JSON report, or CSV text.  ``main`` wraps every dict in
one envelope, ``tool``, ``version``, ``command``, ``map`` (the normalized
input map, so feeding it back reproduces the result), ``flags`` and
``result``, where ``flags`` echoes every parsed option but ``--format`` and
``--out`` (``classify``, ``spectrum`` and ``radius`` echo ``{}``).  JSON
output comes from one writer (``_emit_json``) and is deterministic: fixed
key order, floats with 17 significant digits.  CSV comes from one writer
(``_csv``), floats as %.17g and integers as %d.
"""

from __future__ import annotations

import argparse
import json
import math
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
from .maps import (TOLERANCES, _c2pair, _dominant_boundary_point, map_from_json_dict, map_to_json_dict,
                   validate_self_map)
from .series import (
    basis_multi_indices,
    compression_spectrum,
    _graded,
    _norm_factors,
    _radial_exponent,
)
from .spectra import (
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
# deterministic JSON and CSV


def _emit_json(obj) -> str:
    """The one JSON writer, for plain Python types: complex values come as
    ``_c2pair`` lists, arrays through ``.tolist()``.  A float must be finite
    and is written as %.17g; None, bool, int and str go to ``json.dumps``."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite number in JSON output")
        return format(obj, ".17g")
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _emit_json(v) for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_emit_json(v) for v in obj]) + "]"
    if obj is None or isinstance(obj, (int, str)):  # bool is an int
        return json.dumps(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def _csv(header: str, *columns: np.ndarray) -> str:
    """A header line, then one row per entry of the columns: floats as %.17g
    (the sign of a zero kept), integer columns as %d."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    return header + "\n" + "".join([row % r for r in zip(*(c.tolist() for c in columns))])


def _load_map(path: str):
    source = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapFormatError(
            "invalid JSON in %s at line %d column %d: %s"
            % (source, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # bytes that are not UTF-8, or JSON nested too deeply
        raise MapFormatError("cannot read %s as map JSON: %s" % (source, exc)) from exc
    return map_from_json_dict(obj)


# ---------------------------------------------------------------------------
# subcommands: each takes the loaded map and the parsed options and returns
# its result, a dict for the JSON report or the CSV text


def _cmd_validate(f, args) -> dict:
    rep = validate_self_map(f, tol=args.tol)
    return {
        "ok": rep.ok,
        "max_modulus": rep.max_modulus,
        "witness": _c2pair(rep.witness),
        "samples": rep.samples,
        "tol": rep.tol,
        "denominator_margin": rep.denominator_margin,
    }


def _cmd_classify(f, args) -> dict:
    return classification_to_json_dict(classify(f))


def _cmd_spectrum(f, args) -> dict:
    return spectrum(f).to_json_dict()


def _cmd_radius(f, args) -> dict:
    cl = classify(f)
    sr = spectral_radius(f, cl)
    closed = essential_radius_closed_form(cl)
    estimate = note = agree = disagreement = None
    try:  # the estimator's default tau, read off the classification
        est = essential_radius_estimate(f, _dominant_boundary_point(cl.fixed_set).location)
        estimate = {"limit": est.limit, "angular_derivative": est.angular_derivative, "tau": _c2pair(est.tau)}
    except NoBoundaryFixedPoint:
        note = "no boundary fixed point: the contact-point estimator does not apply"
    except NumericalInconsistency as exc:
        note = "estimator failed: %s" % exc
    if estimate is not None and closed is not None:
        disagreement = abs(estimate["limit"] - closed) / abs(closed)
        agree = bool(disagreement <= 0.05)
    return {
        "kind": cl.kind.value,
        "spectral_radius": sr,
        "essential_radius_closed_form": closed,
        "estimate": estimate,
        "estimate_note": note,
        "relative_disagreement": disagreement,
        "agrees_within_5_percent": agree,
    }


def _cmd_compress(f, args) -> dict | str:
    eigs = compression_spectrum(f, args.degree)
    if args.format == "csv":
        return _csv("re,im", eigs.real, eigs.imag)
    g = _graded(f.n, args.degree)  # its size caps checked by compression_spectrum
    return {
        "degree": args.degree,
        "eigenvalues": _c2pair(eigs),
        "basis": {
            "n": f.n,
            "degree": args.degree,
            "ordering": "graded by total degree, lexicographically descending within each degree",
            "basis": [list(alpha) for alpha in basis_multi_indices(f.n, args.degree)],
            "norms": g.norms.tolist(),
        },
    }


def _cmd_verify_eigen(f, args) -> dict | str:
    eigs, vecs, comp = compression_spectrum(f, args.degree, return_vectors=True)
    # ||M v - lambda v|| / ||v|| in the orthonormal basis: eigenfunction_residual
    # of each eigenpair through the degree, from one product for all of them
    residuals = np.linalg.norm(comp.matrix @ vecs - vecs * eigs, axis=0) / np.linalg.norm(vecs, axis=0)
    if args.format == "csv":
        return _csv("re,im,residual", eigs.real, eigs.imag, residuals)
    rows = [{
        "eigenvalue": pair,
        "modulus": abs(complex(*pair)),
        "residual": res,
        "pass": res <= args.tol,
    } for pair, res in zip(_c2pair(eigs), residuals.tolist())]
    return {"degree": args.degree, "tol": args.tol, "rows": rows}


def _cmd_norms(f, args) -> dict:
    rows = [{"k": k, "weighted_factor": wf, "sobolev_factor": sf, "ratio": r}
            for k, (wf, sf, r) in enumerate(_norm_factors(args.s, args.nu, args.kmax))]
    ratios = [row["ratio"] for row in rows]
    return {
        "s": args.s,
        "nu": args.nu,
        "c": _radial_exponent(args.s, args.nu),
        "k_max": args.kmax,
        "interval": [min(ratios), max(ratios)],
        "rows": rows,
    }


def _cmd_export(f, args) -> dict | str:
    values, index = spectrum(f).discretize(args.resolution)
    if args.format == "csv":
        return _csv("re,im,component_index", values.real, values.imag, index)
    return {
        "resolution": args.resolution,
        "points": [list(p) for p in zip(values.real.tolist(), values.imag.tolist(), index.tolist())],
    }


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
    add("radius", _cmd_radius, "spectral radius, closed-form essential radius, and the contact-point estimate")
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
        f = _load_map(args.map)
        if args.command not in ("validate", "norms"):  # C_phi acts on H^2 only for a self-map phi
            rep = validate_self_map(f)
            if not rep.ok and rep.max_modulus <= 1.0 + rep.tol:  # refused as a constant, of value phi(0) = B / d
                raise NotASelfMap("not a self-map of the ball: a constant map needs a value of modulus "
                                  "below 1 - %g, and this one has %.12g" % (rep.tol, np.linalg.norm(f.b) / f.d))
            if not rep.ok:
                raise NotASelfMap("not a self-map of the ball: sup |phi| = %.12g exceeds 1 + %g"
                                  % (rep.max_modulus, rep.tol))
        result = args.handler(f, args)
        if isinstance(result, str):
            text = result
        else:
            # the one report envelope; flags echoes every option but the artifact's format and path
            flags = {k: v for k, v in vars(args).items() if k not in ("command", "map", "format", "out", "handler")}
            text = _emit_json({"tool": "lfmspec", "version": __version__, "command": args.command,
                               "map": map_to_json_dict(f), "flags": flags, "result": result}) + "\n"
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return EXIT_VALIDATION if args.command == "validate" and not result["ok"] else EXIT_OK
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

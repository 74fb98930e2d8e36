"""Batch command-line front end.

Four verb groups — ``lattice``, ``torus``, ``filling``, ``bundle`` — each
reading exact JSON inputs and writing one deterministic JSON object (or the
same object rendered as an aligned key/value table with ``--format table``)
to stdout.  Exit codes: 0 success, 2 validation failure with a diagnostic
naming the violated invariant, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import filling as fl
from . import io as sio
from .bundles import CircleBundle, bundle_invariants
from .errors import SchemaError, SystolicError
from .lattice import dual_basis, dual_gram, lll_reduce, lll_reduce_gram
from .minima import (
    berge_martinet_invariant_sq,
    hermite_invariant_sq,
    is_critical,
    successive_minima,
)
from .torus import (
    FlatTorus,
    conformal_systole,
    pu_round_check,
    torus_codim1_systole_sq,
    torus_systole_sq,
    verify_conformal_52,
    verify_gromov_torus,
    verify_loewner,
)

__all__ = ["main"]


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", dest="fmt",
        help="output rendering",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized search")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolic",
        description="Exact lattice invariants, flat-torus inequality verdicts, "
        "filling-radius bounds, and circle-bundle invariants.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    lat = sub.add_parser("lattice", help="invariants of one lattice JSON file")
    lat.add_argument(
        "action", choices=("minima", "hermite", "bm", "dual", "reduce", "critical")
    )
    lat.add_argument("--in", dest="infile", required=True, help="lattice JSON path")
    lat.add_argument("--k", type=int, default=None, help="how many minima to report")
    _common_flags(lat)

    tor = sub.add_parser("torus", help="flat-torus systolic quantities and verdicts")
    tor.add_argument(
        "action",
        choices=("verify-loewner", "verify-gromov", "verify-52", "systoles", "pu-round"),
    )
    tor.add_argument("--in", dest="infile", default=None, help="lattice JSON path")
    tor.add_argument("--curvature", type=float, default=None, help="round curvature K > 0")
    _common_flags(tor)

    fil = sub.add_parser("filling", help="filling-radius values and upper bounds")
    fil.add_argument("action", choices=("catalog", "extrema", "bound", "check-91b"))
    fil.add_argument("--in", dest="infile", default=None, help="metric JSON path")
    fil.add_argument(
        "--space", default=None,
        choices=("circle", "sphere", "rp", "real-projective", "cp2", "cp3"),
    )
    fil.add_argument("--length", type=float, default=None, help="circle circumference")
    fil.add_argument("--curvature", type=float, default=None, help="round curvature K > 0")
    fil.add_argument(
        "--i", type=int, default=None, dest="index",
        help="extremum index, or the sphere/projective dimension",
    )
    fil.add_argument("--max-subset", type=int, default=None, dest="max_subset")
    fil.add_argument("--mode", choices=("exhaustive", "greedy"), default="exhaustive")
    _common_flags(fil)

    bun = sub.add_parser("bundle", help="circle-bundle invariants over the two-torus")
    bun.add_argument("--euler", type=int, required=True, help="Euler number (nonzero)")
    _common_flags(bun)

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _require(value, flag: str, action: str):
    if value is None:
        raise SchemaError(f"'{action}' requires {flag}")
    return value


def _cmd_lattice(args) -> dict:
    data = sio.load_lattice(args.infile)
    g = data.gram
    if args.action == "minima":
        report = successive_minima(g, args.k)
        herm = hermite_invariant_sq(g)
        return {
            "dim": report.dim,
            "lambda_sq": [sio.rational_str(x) for x in report.lambda_sq],
            "witnesses": [list(w) for w in report.witnesses],
            "gamma_approx": herm.gamma_approx,
        }
    if args.action == "hermite":
        herm = hermite_invariant_sq(g)
        critical = is_critical(g).critical if g.dim <= 4 else None
        return {
            "dim": herm.dim,
            "lambda1_sq": sio.rational_str(herm.lambda1_sq),
            "det": sio.rational_str(herm.det),
            "gamma_pow": sio.rational_str(herm.value_pow),
            "pow": herm.dim,
            "gamma_approx": herm.gamma_approx,
            "critical": critical,
        }
    if args.action == "bm":
        bm = berge_martinet_invariant_sq(g)
        out = {"dim": g.dim, "bm_sq": sio.rational_str(bm)}
        if g.dim <= 4:
            crit = is_critical(g)
            out["dual_critical"] = crit.dual_critical
            out["constants_derived"] = crit.constants_derived
        else:
            out["dual_critical"] = None
            out["constants_derived"] = None
        return out
    if args.action == "dual":
        if data.basis is not None:
            return sio.basis_to_obj(dual_basis(data.basis))
        return sio.gram_to_obj(dual_gram(g))
    if args.action == "reduce":
        if data.basis is not None:
            reduced, transform = lll_reduce(data.basis)
            out = sio.basis_to_obj(reduced)
        else:
            reduced_gram, transform = lll_reduce_gram(g)
            out = sio.gram_to_obj(reduced_gram)
        out["transform"] = [list(row) for row in transform]
        return out
    crit = is_critical(g)
    return {
        "dim": crit.dim,
        "critical": crit.critical,
        "dual_critical": crit.dual_critical,
        "gap_to_constant": sio.rational_str(crit.gap_to_constant),
        "dual_gap": sio.rational_str(crit.dual_gap),
        "constants_derived": crit.constants_derived,
    }


def _cmd_torus(args) -> dict:
    if args.action == "pu-round":
        curvature = _require(args.curvature, "--curvature", args.action)
        return pu_round_check(curvature).to_json()
    torus = FlatTorus(sio.load_lattice(_require(args.infile, "--in", args.action)).gram)
    if args.action == "verify-loewner":
        return verify_loewner(torus).to_json()
    if args.action == "verify-gromov":
        return verify_gromov_torus(torus).to_json()
    if args.action == "verify-52":
        return verify_conformal_52(torus).to_json()
    conf = conformal_systole(torus)
    out = {
        "dim": torus.dim,
        "systole_sq": sio.rational_str(torus_systole_sq(torus)),
        "conformal_systole": conf.value,
        "lambda1_sq": sio.rational_str(conf.lambda1_sq),
        "det": sio.rational_str(conf.det),
    }
    out["codim1_systole_sq"] = (
        sio.rational_str(torus_codim1_systole_sq(torus)) if torus.dim >= 2 else None
    )
    return out


def _space_from_args(args) -> fl.CatalogSpace:
    name = _require(args.space, "--space", args.action)
    if name == "circle":
        return fl.circle(_require(args.length, "--length", args.action))
    curvature = _require(args.curvature, "--curvature", args.action)
    if name == "sphere":
        return fl.sphere(_require(args.index, "--i (dimension)", args.action), curvature)
    if name in ("rp", "real-projective"):
        return fl.real_projective(
            _require(args.index, "--i (dimension)", args.action), curvature
        )
    if name == "cp2":
        return fl.complex_projective2(curvature)
    return fl.complex_projective3(curvature)


def _cmd_filling(args) -> dict:
    if args.action == "catalog":
        rad = fl.fillrad_catalog(_space_from_args(args))
        return {
            "space": rad.space,
            "value": rad.value,
            "exact": rad.exact,
            "strict_lower_bound": rad.strict_lower_bound,
        }
    if args.action == "extrema":
        index = _require(args.index, "--i", args.action)
        length = _require(args.length, "--length", args.action)
        value = fl.diameter_extrema_circle(index, length)
        windows = fl.circle_neighborhood_windows(length)
        return {
            "i": index,
            "length": length,
            "value": value,
            "windows": [
                {"homotopy_type": w.homotopy_type, "lo": w.lo, "hi": w.hi}
                for w in windows
            ],
        }
    if args.action == "bound":
        space = sio.load_metric(_require(args.infile, "--in", args.action))
        max_subset = _require(args.max_subset, "--max-subset", args.action)
        bound = fl.fillrad_upper_bound(space, max_subset, mode=args.mode, seed=args.seed)
        return {"R": bound.R, "witness": list(bound.witness), "mode": bound.mode}
    return fl.check_91b(_space_from_args(args)).to_json()


def _cmd_bundle(args) -> dict:
    inv = bundle_invariants(CircleBundle(args.euler))
    return {
        "e": inv.euler,
        "h1": {"free_rank": inv.h1.free_rank, "torsion": list(inv.h1.torsion)},
        "cover_h1_rank": inv.cover_h1_rank_over_z,
        "linking": {
            "magnitude": sio.rational_str(inv.linking.magnitude),
            "signed": sio.rational_str(inv.linking.signed),
            "convention": inv.linking.convention,
        },
        "lambda": sio.rational_str(inv.casson),
        "corollary93": inv.corollary93_applicable,
    }


_HANDLERS = {
    "lattice": _cmd_lattice,
    "torus": _cmd_torus,
    "filling": _cmd_filling,
    "bundle": _cmd_bundle,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    rows = list(_flatten(payload))
    width = max(len(key) for key, _ in rows)
    return "\n".join(
        f"{key.ljust(width)}  {json.dumps(value)}" for key, value in rows
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse usage errors already printed a message
        return int(exc.code or 0)
    try:
        payload = _HANDLERS[args.group](args)
    except SystolicError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 3
    print(_render(payload, args.fmt))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

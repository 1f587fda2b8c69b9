"""Command line interface.

Subcommands map one-to-one onto the library layers:

* ``critical``  - critical constants of one steric pair
* ``branches``  - branch concentrations and potentials on a sigma grid
* ``solve``     - steady-state potential and concentration profiles
* ``current``   - pointwise excess current and its window integrals
* ``sweep``     - repeat any of the above over a list of parameter values

``solve`` and ``current`` build a three- or four-species configuration
and read its charge terms from rhs.charge_terms; the concentration
columns c1..cN follow that species order.

Parameters come from an optional JSON configuration file (``--config``)
overridden by command line flags.  Reports are emitted as CSV (default)
or JSON.  JSON output is a single object with ``config``, ``results``
and ``warnings`` keys; its text is exactly ``json.dumps(report,
indent=2)`` plus a newline, so it round-trips bit-for-bit through the
standard json module.  Every float CSV cell is its ``repr``.  Result
tables (``{"columns", "rows"}``) are written straight from the reprs of
their cells, without the encoder's per-value walk; the text is the same.
The argument parser is built once per process, on the first ``main()``
call.  Exit codes: 0 on success, 2 for configuration errors, 3 for
solver failures.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from . import branch, bvp, current, rhs
from .errors import ConfigError, PnpStericError

__all__ = ["main", "run", "parse_config"]

OUTDIR_ENV = "PNP_STERIC_OUTDIR"

_MODES = ("critical", "branches", "solve", "current")

# name -> (type, default); None defaults mean "derived later"
_FIELDS = {
    "species": (str, "three"),
    "g": (float, 0.0),
    "z": (float, 0.0),
    "q": (float, 1.0),
    "g2": (float, 0.0),
    "z2": (float, 0.0),
    "q2": (float, 1.0),
    "z3": (float, 1.0),
    "rho0": (float, 0.5),
    "epsilon": (float, 1e-2),
    "eta": (float, 0.0),
    "phi0_left": (float, None),
    "phi0_right": (float, None),
    "branch": (str, "A"),
    "n_nodes": (int, None),
    "x1": (float, -0.5),
    "x2": (float, 0.5),
    "d1": (float, 1.0),
    "d2": (float, 1.0),
    "d3": (float, 1.0),
    "d4": (float, 1.0),
    "charge_scale": (float, 1.0),
    "sigma_max": (float, None),
    "n_sigma": (int, 200),
    "format": (str, "csv"),
    "out": (str, None),
}


def _flag(name):
    return "--" + name.replace("_", "-")


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by later calls.

    parse_args keeps no state in the parser: each call fills a fresh
    namespace.
    """
    parser = argparse.ArgumentParser(
        prog="pnp-steric",
        description="Steady-state steric Poisson-Nernst-Planck toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    for name, (typ, _default) in _FIELDS.items():
        common.add_argument(_flag(name), type=typ, default=None, dest=name)

    for mode in _MODES:
        sub.add_parser(mode, parents=[common])
    sweep = sub.add_parser("sweep", parents=[common])
    sweep.add_argument("--target", required=True, choices=_MODES)
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values")
    return parser


def parse_config(raw, mode):
    """Validate a flat dict of settings and fill defaults; ConfigError on bad input."""
    cfg = {}
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ConfigError("unknown configuration keys: %s" % ", ".join(sorted(unknown)))
    for name, (typ, default) in _FIELDS.items():
        value = raw.get(name)
        if value is None:
            cfg[name] = default
            continue
        # JSON true/false and 300.7 would pass as 1.0/0.0 (or "True") and 300
        if isinstance(value, bool) or (
            typ is int and isinstance(value, float) and not value.is_integer()
        ):
            raise ConfigError("bad value for %s: %r" % (name, value))
        try:
            cfg[name] = typ(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("bad value for %s: %r" % (name, value))
    cfg["mode"] = mode

    if mode not in _MODES:
        raise ConfigError("unknown mode %r" % mode)
    if cfg["species"] not in ("three", "four"):
        raise ConfigError("species must be 'three' or 'four'")
    if cfg["branch"] not in ("A", "B"):
        raise ConfigError("branch must be 'A' or 'B'")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")
    for name in ("epsilon", "d1", "d2", "d3", "d4", "charge_scale"):
        if not (math.isfinite(cfg[name]) and cfg[name] > 0):
            raise ConfigError("%s must be a positive finite number" % name)
    if not (math.isfinite(cfg["eta"]) and cfg["eta"] >= 0):
        raise ConfigError("eta must be a nonnegative finite number")
    for name in ("x1", "x2", "sigma_max", "phi0_left", "phi0_right"):
        if cfg[name] is not None and not math.isfinite(cfg[name]):
            raise ConfigError("%s must be a finite number" % name)
    if not -1.0 <= cfg["x1"] <= cfg["x2"] <= 1.0:
        raise ConfigError("window must satisfy -1 <= x1 <= x2 <= 1")
    for name, least in (("n_nodes", 5), ("n_sigma", 1)):
        if cfg[name] is not None and cfg[name] < least:
            raise ConfigError("%s must be at least %d" % (name, least))
    if mode in ("solve", "current"):
        if cfg["species"] == "three" and cfg["rho0"] <= 0:
            raise ConfigError(
                "three-species runs require a positive background rho0"
            )
        if cfg["species"] == "four" and cfg["rho0"] == 0:
            raise ConfigError("four-species runs require a nonzero rho0")
    return cfg


def _pair(cfg, which="12"):
    try:
        if which == "12":
            return branch.TwoSpeciesParams(cfg["g"], cfg["z"], cfg["q"])
        return branch.TwoSpeciesParams(cfg["g2"], cfg["z2"], cfg["q2"])
    except PnpStericError as exc:
        raise ConfigError(str(exc))


def _species_config(cfg):
    try:
        if cfg["species"] == "three":
            return rhs.ThreeSpeciesConfig(_pair(cfg), cfg["z3"], cfg["rho0"])
        return rhs.FourSpeciesConfig(_pair(cfg), _pair(cfg, "34"), cfg["rho0"])
    except PnpStericError as exc:
        raise ConfigError(str(exc))


def _solve(cfg):
    spec_cfg = _species_config(cfg)
    fn = rhs.assemble(spec_cfg, cfg["branch"])
    left = cfg["phi0_left"] if cfg["phi0_left"] is not None else fn.root
    right = cfg["phi0_right"] if cfg["phi0_right"] is not None else fn.root
    bc = bvp.RobinBC(left, right, cfg["eta"])
    problem = bvp.BvpProblem(cfg["epsilon"], fn, bc, cfg["n_nodes"])
    return spec_cfg, fn, bvp.solve(problem)


def _run_critical(cfg):
    cs = branch.critical_set(_pair(cfg))
    return {
        "constants": {
            "sigma_z": cs.sigma_z,
            "g_crit": cs.g_crit,
            "sigma_c": cs.sigma_c,
            "phi_crit": cs.phi_crit,
        }
    }


def _run_branches(cfg):
    pair = _pair(cfg)
    sz = branch.sigma_z(pair)
    smax = cfg["sigma_max"] if cfg["sigma_max"] is not None else sz + 5.0
    if smax <= sz:
        raise ConfigError("sigma_max must exceed sigma_z = %.17g" % sz)
    sigmas = np.linspace(sz, smax, cfg["n_sigma"])
    c1, c2 = branch.concentrations(sigmas, pair, "A")
    phi_a = branch.phi_on_branch(sigmas, pair, "A")
    return {
        "branches": {
            "columns": ["sigma", "c1_A", "c2_A", "phi_A", "phi_B"],
            "rows": np.column_stack([sigmas, c1, c2, phi_a, -phi_a]).tolist(),
        }
    }


def _profile_table(cfg, spec_cfg, sol):
    """Potential and concentrations c1..cN, in species order (rhs.charge_terms)."""
    phi = sol.values
    pairs, valences, _ = rhs.charge_terms(spec_cfg, cfg["branch"])
    conc = []
    for pair, label in pairs:
        sig = branch.inverse_sigma(phi, pair, label + "1")
        conc.extend(branch.concentrations(sig, pair, label))
    conc.extend(rhs.third_species_concentration(phi, z) for z in valences)
    cols = ["x", "phi"] + ["c%d" % (i + 1) for i in range(len(conc))]
    return {"columns": cols, "rows": np.column_stack([sol.nodes, phi] + conc).tolist()}


def _run_solve(cfg):
    spec_cfg, fn, sol = _solve(cfg)
    return {
        "profile": _profile_table(cfg, spec_cfg, sol),
        "summary": {
            "root": fn.root,
            "classification": sol.classification,
            "residual_norm": sol.residual_norm,
            "iterations": sol.iterations,
        },
    }


def _run_current(cfg):
    spec_cfg, fn, sol = _solve(cfg)
    label = cfg["branch"]
    pairs, valences, _ = rhs.charge_terms(spec_cfg, label)
    n = 2 * len(pairs) + len(valences)
    coeffs = tuple(cfg["d%d" % i] for i in range(1, n + 1))
    diff = current.DiffusionSet(coeffs, cfg["charge_scale"])
    prof = current.pointwise_current(sol, spec_cfg, diff, label)
    i_sigma = current.integral_current_sigma(
        sol, spec_cfg, diff, label, cfg["x1"], cfg["x2"]
    )
    i_x = current.integral_current_x(prof, cfg["x1"], cfg["x2"])
    return {
        "current": {
            "columns": ["x", "phi", "excess_current"],
            "rows": np.column_stack([prof.nodes, sol.values, prof.values]).tolist(),
        },
        "summary": {
            "root": fn.root,
            "x1": cfg["x1"],
            "x2": cfg["x2"],
            "integral_x": i_x,
            "integral_sigma": i_sigma,
        },
    }


_RUNNERS = {
    "critical": _run_critical,
    "branches": _run_branches,
    "solve": _run_solve,
    "current": _run_current,
}


def run(cfg):
    """Execute one validated configuration, returning the report dict."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = _RUNNERS[cfg["mode"]](cfg)
    return {
        "config": cfg,
        "results": results,
        "warnings": [str(w.message) for w in caught],
    }


def _format_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _is_table(payload):
    return isinstance(payload, dict) and "columns" in payload


def _report_to_csv(report):
    """One CSV block per result, blank-line separated.

    A table's float rows are joined from float.__repr__ directly: a repr
    holds no comma, quote or line break, so csv.writer would write the
    same cells unquoted.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, payload in enumerate(report["results"].values()):
        if i:
            buf.write("\n")
        if _is_table(payload):
            writer.writerow(payload["columns"])
            buf.write("".join(
                ",".join(map(float.__repr__, row)) + "\n" for row in payload["rows"]
            ))
        else:
            keys = list(payload)
            writer.writerow(keys)
            writer.writerow([_format_cell(payload[k]) for k in keys])
    return buf.getvalue()


def _json_rows(rows, depth):
    """The text of json.dumps(rows, indent=2) for a list of float rows
    nested ``depth`` levels deep, built from float.__repr__ of each cell.
    """
    if not rows:
        return "[]"
    outer = "\n" + "  " * depth
    inner = outer + "  "
    cell = inner + "  "
    reprs = map(functools.partial(map, float.__repr__), rows)
    text = "".join((
        "[", inner, "[", cell,
        (inner + "]," + inner + "[" + cell).join(map(("," + cell).join, reprs)),
        inner, "]", outer, "]",
    ))
    if not all(rows):
        # only an empty row puts inner right after a row's opening cell
        text = text.replace("[" + cell + inner + "]", "[]")
    # repr spells non-finite floats nan, inf and -inf, json NaN, Infinity and
    # -Infinity; no finite repr holds a letter but "e", so replacing is safe
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


# A table's rows stand in for "\0" while json.dumps writes the rest of the
# report.  json escapes every quote inside a string, so this text can only
# be a "rows" key holding that placeholder; the tables sit at depth 3
# (report -> results -> table -> rows).
_ROWS_PLACEHOLDER = '"rows": "\\u0000"'


def _report_to_json(report):
    tables = []
    results = {}
    for name, payload in report["results"].items():
        if _is_table(payload):
            tables.append(payload["rows"])
            payload = dict(payload, rows="\0")
        results[name] = payload
    text = json.dumps(dict(report, results=results), indent=2)
    pieces = text.split(_ROWS_PLACEHOLDER)
    out = [pieces[0]]
    for rows, piece in zip(tables, pieces[1:]):
        out += ['"rows": ', _json_rows(rows, 3), piece]
    out.append("\n")
    return "".join(out)


def _render(report, fmt):
    if fmt == "json":
        return _report_to_json(report)
    return _report_to_csv(report)


def _output_path(path):
    """Relative output paths resolve under $PNP_STERIC_OUTDIR when it is set."""
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(report, cfg):
    text = _render(report, cfg["format"])
    if cfg["out"] is None:
        sys.stdout.write(text)
        return
    with open(_output_path(cfg["out"]), "w", newline="") as fh:
        fh.write(text)


def _gather(args):
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config file: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("config file is not valid JSON: %s" % exc)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a JSON object")
        raw.update(file_cfg)
    for name in _FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            raw[name] = value
    raw.pop("mode", None)
    return raw


def _run_sweep(args):
    raw = _gather(args)
    base = parse_config(raw, args.target)
    if base["out"] is None:
        raise ConfigError("sweep requires --out as a filename stem")
    param = args.param
    if param not in _FIELDS or param in ("format", "out"):
        raise ConfigError("cannot sweep over %r" % param)
    typ = _FIELDS[param][0]
    try:
        values = [typ(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("bad sweep values: %r" % args.values)
    if not values:
        raise ConfigError("empty sweep value list")

    ext = "json" if base["format"] == "json" else "csv"
    stem = _output_path(base["out"])
    entries = []
    for value in values:
        point = dict(raw)
        point[param] = value
        cfg = parse_config(point, args.target)
        path = "%s_%s_%s.%s" % (stem, param, _format_cell(cfg[param]), ext)
        cfg["out"] = None
        text = _render(run(cfg), base["format"])
        with open(path, "w", newline="") as fh:
            fh.write(text)
        entries.append({"parameter": param, "value": cfg[param], "file": path})
    manifest = {"target": args.target, "parameter": param, "points": entries}
    with open(stem + "_manifest.json", "w", newline="") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            _run_sweep(args)
            return 0
        cfg = parse_config(_gather(args), args.command)
        report = run(cfg)
        _emit(report, cfg)
        return 0
    except ConfigError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 2
    except PnpStericError as exc:
        sys.stderr.write("%s error in %s: %s\n"
                         % (type(exc).__name__, args.command, exc))
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line front end: deterministic experiment runs from YAML configs.

Commands: sample, covariance, rkhs, markov, riemann.  ``_run`` checks the
whole config against the command's schema in ``_COMMANDS`` (each key's type,
default and range, cross-key rules; unknown keys are errors), builds the
measure and lattice, calls the ``cmd_*`` function, which only computes, and
writes its JSON report, CSV table and summary line.  Outputs are bit-for-bit
reproducible from (config, seed); every report embeds the raw-config hash,
the RNG scheme id, the lattice and the spectral truncation tail.

Exit codes: 0 success / 1 usage or config error (a rule the library owns,
such as the Riemann study's on its levels, included) / 2 Dalang condition
failure / 3 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import replace
from numbers import Real
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from . import pde, rkhs, markov, simulate, spectral
from .errors import DalangConditionError, InvariantViolation
from .lattice import SpaceTimeLattice, _is_power_of_two, norm0, random_band_limited
from .spectral import Family, SpectralMeasure


class UsageError(Exception):
    """Bad flags or bad config values: exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="spde-lab",
                description="spectral stochastic-heat-equation laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (cmd, _, _) in _COMMANDS.items():
        q = sub.add_parser(name, help=cmd.__doc__.splitlines()[0])
        q.add_argument("--config", required=True, help="YAML config path")
        q.add_argument("--seed", type=int, default=None, help="override config seed")
        q.add_argument("--out", default=None, help="override output directory")
        q.add_argument("--quiet", action="store_true", help="suppress summary lines")
    return p


# -- config schema -------------------------------------------------------------


class _Key(NamedTuple):
    """One config key.  ``kind``: int, float (ints accepted, stored as float),
    Real (any number, kept as written), bool, str, a tuple of allowed strings,
    a nested schema dict, or [kind] for a list (parsed to a tuple).
    ``default``: ``...`` if required, None if optional without a default.
    ``bound``: (description, predicate) on the value or on each list item."""

    kind: object
    default: object = ...
    bound: tuple = None


def _at_least(low: int) -> tuple:
    return (f"at least {low}", lambda v: v >= low)


_POSITIVE = ("positive", lambda v: v > 0)
_POWER_OF_TWO = ("a power of two", _is_power_of_two)
# the Philox key is two unsigned 64-bit words
_SEED = ("in [0, 2^64)", lambda v: 0 <= v < 2 ** 64)

_MEASURE = {"family": _Key(tuple(f.value for f in Family)),
            "alpha": _Key(float, 0.0),
            "dim": _Key(int, 1, _at_least(1)),
            "formal": _Key(bool, False)}
_LATTICE = {"dim": _Key(int, bound=_at_least(1)),
            "extent": _Key([float], bound=_POSITIVE),
            "n_space": _Key([int], bound=_POWER_OF_TWO),
            "t_max": _Key(float, bound=_POSITIVE),
            "n_time": _Key(int, bound=_at_least(1))}
_TOP = {"seed": _Key(int, 0, _SEED), "out": _Key(str, None),
        "measure": _Key(_MEASURE), "lattice": _Key(_LATTICE)}

_SAMPLE = {"n_paths": _Key(int, 4, _at_least(1))}
_COVARIANCE = {"n_points": _Key(int, 8, _at_least(1)),
               "n_paths": _Key(int, 4000, _at_least(2))}
_RKHS = {"samples": _Key(int, 120, _at_least(100))}
_MARKOV = {"band_widths": _Key([Real], bound=_POSITIVE),
           "rect": _Key({"t": _Key([float]), "x": _Key([[float]])}),
           "time_stride": _Key(int, 1, _at_least(1)),
           "space_stride": _Key(int, 1, _at_least(1)),
           "oracle_refine": _Key(int, 1, _POWER_OF_TWO)}
_RIEMANN = {"levels": _Key([int], [8, 16, 32], _at_least(1)),
            "extent": _Key([float], [8.0], _POSITIVE),
            "t_max": _Key(float, 1.0, _POSITIVE),
            # absent bump keys are derived from extent and t_max
            "bump": _Key({"t_center": _Key(float, None),
                          "t_width": _Key(float, None, _POSITIVE),
                          "x_center": _Key([float], None),
                          "x_width": _Key([float], None, _POSITIVE)}, {})}

# Cross-key rules: (message, predicate on the parsed config).
_DIM_RULE = ("measure.dim must equal lattice.dim", lambda c: "lattice" not in c
             or c["measure"]["dim"] == c["lattice"]["dim"])
_MARKOV_RULES = [
    ("markov.band_widths must not be empty", lambda c: c["markov"]["band_widths"]),
    ("markov.rect needs t: [lo, hi] and one x pair [lo, hi] per lattice axis",
     lambda c: [len(v) for v in (c["markov"]["rect"]["t"], *c["markov"]["rect"]["x"])]
     == [2] * (1 + c["lattice"]["dim"])),
]


def _value(key: _Key, v, where: str):
    """``v`` checked against ``key``; nested mappings and lists recurse."""
    kind = key.kind
    if isinstance(kind, dict):
        return _parse(kind, v, where + ".")
    if isinstance(kind, list):
        if not isinstance(v, list):
            raise UsageError(f"{where} must be a list, got {v!r}")
        item = _Key(kind[0], bound=key.bound)
        return tuple(_value(item, x, f"{where}[{i}]") for i, x in enumerate(v))
    if kind in (float, Real):
        ok = (isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max)
        what = "a finite number"
        v = float(v) if ok and kind is float else v
    elif kind is int:
        ok, what = isinstance(v, int) and not isinstance(v, bool), "an integer"
    elif isinstance(kind, tuple):
        ok, what = isinstance(v, str) and v in kind, "one of " + ", ".join(kind)
    else:
        ok, what = isinstance(v, kind), f"a {kind.__name__}"
    if not ok:
        raise UsageError(f"{where} must be {what}, got {v!r}")
    if key.bound and not key.bound[1](v):
        raise UsageError(f"{where} must be {key.bound[0]}, got {v!r}")
    return v


def _parse(schema: dict, raw, prefix: str = "") -> dict:
    """``raw`` checked key by key against ``schema``, defaults filled in."""
    if not isinstance(raw, dict):
        raise UsageError(f"{prefix[:-1] or 'config'} must be a mapping, got {raw!r}")
    unknown = [k for k in raw if k not in schema]
    if unknown:
        raise UsageError(f"unknown config key {prefix}{unknown[0]}; "
                         f"allowed: {', '.join(schema)}")
    parsed = {}
    for name, key in schema.items():
        if name in raw:
            parsed[name] = _value(key, raw[name], prefix + name)
        elif key.default is ...:
            raise UsageError(f"config is missing required key {prefix + name!r}")
        elif key.default is not None:
            parsed[name] = _value(key, key.default, prefix + name)
    return parsed


def _check_config(command: str, raw) -> dict:
    """The config for ``command`` parsed against its schema and rules."""
    _, schema, rules = _COMMANDS[command]
    cfg = _parse(schema, raw)
    for message, holds in [_DIM_RULE, *rules]:
        if not holds(cfg):
            raise UsageError(message)
    return cfg


# -- running a command ---------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        cfg = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise UsageError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a mapping")
    return cfg


def _sanitize(obj):
    """Plain JSON values: numpy to Python, tuples to lists, inf/nan to None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def _lattice_fields(measure: SpectralMeasure, lattice: SpaceTimeLattice) -> dict:
    tail = spectral.truncation_tail(measure, lattice.nyquist_radius)
    return {"lattice": lattice.to_dict(), "truncation_tail": tail}


def _run(args) -> None:
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = _check_config(args.command, raw)
    measure = SpectralMeasure(**cfg["measure"])
    lattice = SpaceTimeLattice(**cfg["lattice"]) if "lattice" in cfg else None
    out = args.out or cfg.get("out")
    if not out:
        raise UsageError("no output directory: set --out or config key 'out'")
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}") from exc

    # the hash covers the raw config, not the parsed one with its defaults
    hashed = {**raw, "seed": cfg["seed"], "command": args.command}
    hashed.pop("out", None)  # the location does not affect results
    blob = json.dumps(_sanitize(hashed), sort_keys=True, separators=(",", ":"))
    base = {"config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "rng_id": simulate.RNG_ID, "measure": cfg["measure"]}
    if lattice is not None:
        base.update(_lattice_fields(measure, lattice))

    cmd = _COMMANDS[args.command][0]
    fields, table, summary = cmd(cfg, measure, lattice, out, base)
    _write_json(out / f"{args.command}_report.json", {**base, **fields})
    if table is not None:
        name, columns, rows = table
        with open(out / name, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n",
                               extrasaction="ignore")
            w.writeheader()
            for row in rows:
                w.writerow({k: _sanitize(v) for k, v in row.items()})
    if not args.quiet:
        print(summary)


# -- commands: each takes (cfg, measure, lattice, out, base) and returns
# (report fields, CSV table as (file name, columns, rows) or None, summary).


def cmd_sample(cfg, measure, lattice, out, base):
    """draw solution paths and save the ensemble"""
    n_paths = cfg["sample"]["n_paths"]
    ens = simulate.simulate_u(measure, lattice, cfg["seed"], n_paths)
    manifest_path = ens.save(out / "ensemble")
    # fold the experiment hash into the saved manifest as well
    manifest = json.loads(manifest_path.read_text())
    manifest["config_sha256"] = base["config_sha256"]
    manifest["truncation_tail"] = base["truncation_tail"]
    _write_json(manifest_path, manifest)
    return ({"n_paths": n_paths, "ensemble_manifest": manifest_path.name,
             "files": n_paths},
            None, f"sample: wrote {n_paths} paths to {out / 'ensemble'}")


def cmd_covariance(cfg, measure, lattice, out, base):
    """Monte Carlo covariance vs the frequency-sum oracle"""
    n_points, n_paths = cfg["covariance"]["n_points"], cfg["covariance"]["n_paths"]
    rng = np.random.default_rng([cfg["seed"], 101])
    pts_idx = [(int(rng.integers(1, lattice.n_time + 1)),  # time, then space
                tuple(int(rng.integers(0, n)) for n in lattice.n_space))
               for _ in range(n_points)]
    pts_phys = [lattice.grid_point(m, j) for m, j in pts_idx]
    model = simulate.NoiseModel(measure, lattice)
    mc = simulate.mc_covariance(model, pts_idx, cfg["seed"], n_paths)
    C = markov.assemble_covariance(measure, lattice, pts_phys)
    rows = []
    max_z = 0.0
    for a in range(n_points):
        for b in range(a, n_points):
            se = mc["stderr"][a, b]
            z = (mc["estimate"][a, b] - C.values[a, b]) / se if se > 0 else 0.0
            max_z = max(max_z, abs(z))
            rows.append({"i": a, "j": b, "oracle": C.values[a, b],
                         "mc": mc["estimate"][a, b], "stderr": se, "z": z})
    return ({"n_points": n_points, "n_paths": n_paths, "max_abs_z": max_z,
             "points": pts_phys, "psd_min_eig": C.meta["min_eig"]},
            ("covariance_pairs.csv", ["i", "j", "oracle", "mc", "stderr", "z"],
             rows),
            f"covariance: max |z| = {max_z:.3f} over {len(rows)} pairs "
            f"({n_paths} paths)")


def cmd_rkhs(cfg, measure, lattice, out, base):
    """representer chain, duality, and norm-equivalence reports"""
    rng = np.random.default_rng([cfg["seed"], 202])
    phi = random_band_limited(lattice, rng)
    elem = rkhs.representer(phi, measure)
    eta = random_band_limited(lattice, rng)
    dual = rkhs.duality_check(elem, eta)
    if dual["gap"] > 1e-8:
        raise InvariantViolation(f"duality gap {dual['gap']:.3e} > 1e-8")
    study = rkhs.norm_equivalence_study(cfg["rkhs"]["samples"], measure,
                                        lattice, seed=cfg["seed"] + 1)
    return ({"probe": elem.probe_report, "duality": dual,
             "norm_equivalence": study},
            # str() of a probe's integer point list is its JSON text
            ("rkhs_probes.csv", ["point", "direct", "solver", "rel_err"],
             elem.probe_report["probes"]),
            f"rkhs: probe max rel err {elem.probe_report['max_rel_err']:.2e}, "
            f"duality gap {dual['gap']:.2e}, "
            f"norm-equivalence spread {study['spread']:.2f}")


def cmd_markov(cfg, measure, lattice, out, base):
    """conditional-covariance screening across band widths"""
    params = cfg["markov"]
    widths = params["band_widths"]
    rect = (params["rect"]["t"],) + params["rect"]["x"]
    refine = params["oracle_refine"]
    points = [lattice.grid_point(m, j)
              for m in range(1, lattice.n_time + 1, params["time_stride"])
              for j in np.ndindex(*lattice.n_space)
              if not any(ji % params["space_stride"] for ji in j)]

    # The covariance oracle sums over the quadrature lattice's frequency
    # grid; refining it in space sharpens the oracle toward the continuum
    # covariance while the observation grid (points, band widths) is fixed.
    quad_lattice = replace(lattice, n_space=tuple(n * refine
                                                  for n in lattice.n_space))
    C = markov.assemble_covariance(measure, quad_lattice, points)
    study = markov.band_width_study(C, rect, widths, partition_lattice=lattice)
    if all(b > a for a, b in zip(widths, widths[1:])) and not study["non_increasing"]:
        raise InvariantViolation("screening statistic max_abs_cond_corr is not "
                                 "non-increasing in band width")
    stats = ", ".join(f"{r['band_width']}: {r['max_abs_cond_corr']:.2e}"
                      for r in study["rows"])
    return ({"band_widths": widths, "rect": rect, "n_points": len(points),
             "oracle_refine": refine, "non_increasing": study["non_increasing"],
             "psd_min_eig": C.meta["min_eig"], "rows": study["rows"]},
            ("markov_bands.csv",
             ["band_width", "max_abs_cond_corr", "inside", "band", "outside",
              "ridge", "band_condition_number"],
             study["rows"]),
            f"markov: max |conditional corr| by band width -> {stats}")


def cmd_riemann(cfg, measure, lattice, out, base):
    """Riemann-sum convergence study of the backward convolution"""
    params = cfg["riemann"]
    extent, t_max = params["extent"], params["t_max"]
    bump = pde.BumpSpec(**{"t_center": 0.5 * t_max, "t_width": 0.25 * t_max,
                           "x_center": tuple(0.5 * L for L in extent),
                           "x_width": tuple(0.15 * L for L in extent),
                           **params["bump"]})
    study = pde.riemann_convergence_study(measure, bump, params["levels"],
                                          extent, t_max)
    if not study["monotone"]:
        raise InvariantViolation(
            "riemann study error column norm0_error is not strictly decreasing")
    ref_lat = SpaceTimeLattice(len(extent), extent,
                               (study["reference"]["n_space"],) * len(extent),
                               t_max, study["reference"]["n_time"])
    # sums that resolve the kernel beat the zero field, whose error is ||phi||_0
    finest = study["rows"][-1]["norm0_error"]
    phi_norm = norm0(pde.solve_backward(bump.sample(ref_lat)), measure)
    if not finest < phi_norm:
        raise InvariantViolation(
            f"riemann study resolves nothing: the finest level's norm0_error "
            f"{finest:.3e} is not below ||phi||_0 = {phi_norm:.3e}")
    return ({**_lattice_fields(measure, ref_lat), "levels": params["levels"],
             "rows": study["rows"], "monotone": study["monotone"],
             "min_observed_order": study["min_observed_order"]},
            ("riemann_levels.csv",
             ["level", "n_space", "n_time", "norm0_error", "observed_order"],
             study["rows"]),
            "riemann: errors " + ", ".join(f"{r['norm0_error']:.3e}"
                                           for r in study["rows"]))


# command -> (function, schema, cross-key rules)
_COMMANDS = {
    "sample": (cmd_sample, {**_TOP, "sample": _Key(_SAMPLE, {})}, []),
    "covariance": (cmd_covariance, {**_TOP, "covariance": _Key(_COVARIANCE, {})}, []),
    "rkhs": (cmd_rkhs, {**_TOP, "rkhs": _Key(_RKHS, {})}, []),
    "markov": (cmd_markov, {**_TOP, "markov": _Key(_MARKOV, {})}, _MARKOV_RULES),
    # riemann accepts a lattice for config reuse; it is checked, not used
    "riemann": (cmd_riemann, {**_TOP, "lattice": _Key(_LATTICE, None),
                              "riemann": _Key(_RIEMANN, {})}, []),
}


def main(argv=None) -> int:
    try:
        _run(_build_parser().parse_args(argv))
    except (UsageError, ValueError) as exc:
        # one line, whatever the message (YAML errors span several)
        print(f"usage error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 1
    except DalangConditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, not a bad input: still one line
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

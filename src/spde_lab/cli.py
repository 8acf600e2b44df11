"""Command-line front end: deterministic experiment runs from YAML configs.

Commands: sample, covariance, rkhs, markov, riemann.  Each reads one config
file, runs the corresponding module, and writes JSON (machine) plus CSV
(table) reports into the output directory.  Outputs are reproducible
bit-for-bit from (config, seed): no timestamps, sorted keys, fixed float
repr.  Every report embeds the resolved-config hash, the RNG scheme id, the
lattice parameters, and the spectral truncation-tail estimate.

Exit codes: 0 success / 1 usage or config error / 2 precondition failure
(e.g. non-integrable spectral density) / 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import pde, rkhs, markov, simulate, spectral
from .errors import DalangConditionError, InvariantViolation
from .lattice import SpaceTimeLattice, random_band_limited
from .spectral import SpectralMeasure


class UsageError(Exception):
    """Bad flags or bad config values: exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="spde-lab",
                description="spectral stochastic-heat-equation laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("sample", "draw solution paths and save the ensemble"),
        ("covariance", "Monte Carlo covariance vs the frequency-sum oracle"),
        ("rkhs", "representer chain, duality, and norm-equivalence reports"),
        ("markov", "conditional-covariance screening across band widths"),
        ("riemann", "Riemann-sum convergence study of the backward convolution"),
    ]:
        q = sub.add_parser(name, help=doc)
        q.add_argument("--config", required=True, help="YAML config path")
        q.add_argument("--seed", type=int, default=None, help="override config seed")
        q.add_argument("--out", default=None, help="override output directory")
        q.add_argument("--quiet", action="store_true", help="suppress summary lines")
    return p


# -- config plumbing -----------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise UsageError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a mapping")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise UsageError(f"config is missing required key {key!r}")
    return cfg[key]


def _int_param(params: dict, section: str, key: str, default: int,
               low: int) -> int:
    """``params[key]`` (or ``default``) as an integer of at least ``low``."""
    try:
        value = int(params.get(key, default))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{section}.{key} must be an integer: {exc}") from exc
    if value < low:
        raise UsageError(f"{section}.{key} must be at least {low}, got {value}")
    return value


def _measure_from(cfg: dict) -> SpectralMeasure:
    spec = _require(cfg, "measure")
    try:
        return SpectralMeasure(spec["family"], float(spec.get("alpha", 0.0)),
                               int(spec.get("dim", 1)), bool(spec.get("formal", False)))
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad measure spec: {exc}") from exc


def _lattice_from(cfg: dict) -> SpaceTimeLattice:
    spec = _require(cfg, "lattice")
    try:
        return SpaceTimeLattice(int(spec["dim"]),
                                tuple(float(v) for v in spec["extent"]),
                                tuple(int(v) for v in spec["n_space"]),
                                float(spec["t_max"]), int(spec["n_time"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"bad lattice spec: {exc}") from exc


def _resolve(args, cfg: dict) -> dict:
    """Apply CLI overrides; returns the resolved experiment dict that is hashed."""
    resolved = dict(cfg)
    if args.seed is not None:
        resolved["seed"] = int(args.seed)
    resolved.setdefault("seed", 0)
    try:
        seed = int(resolved["seed"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"seed must be an integer: {exc}") from exc
    if not 0 <= seed < 2 ** 64:  # the Philox key is two unsigned 64-bit words
        raise UsageError(f"seed must lie in [0, 2^64), got {seed}")
    resolved["command"] = args.command
    resolved.pop("out", None)  # the location does not affect results
    return resolved


def _out_dir(args, cfg: dict) -> Path:
    out = args.out or cfg.get("out")
    if not out:
        raise UsageError("no output directory: set --out or config key 'out'")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _config_sha(resolved: dict) -> str:
    blob = json.dumps(_sanitize(resolved), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _base_report(resolved: dict, measure: SpectralMeasure,
                 lattice: SpaceTimeLattice) -> dict:
    tail = spectral.truncation_tail(measure, lattice.nyquist_radius)
    return {
        "config_sha256": _config_sha(resolved),
        "rng_id": simulate.RNG_ID,
        "lattice": lattice.to_dict(),
        "measure": {"family": measure.family.value, "alpha": measure.alpha,
                    "dim": measure.dim, "formal": measure.formal},
        "truncation_tail": tail if math.isfinite(tail) else None,
    }


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n",
                           extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow({k: _sanitize(v) for k, v in row.items()})


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


# -- commands ------------------------------------------------------------------


def cmd_sample(args, cfg: dict, resolved: dict) -> None:
    measure = _measure_from(cfg)
    lattice = _lattice_from(cfg)
    params = cfg.get("sample", {})
    n_paths = _int_param(params, "sample", "n_paths", 4, 1)
    out = _out_dir(args, cfg)
    ens = simulate.simulate_u(measure, lattice, int(resolved["seed"]), n_paths)
    report = _base_report(resolved, measure, lattice)
    manifest_path = ens.save(out / "ensemble")
    report.update({"n_paths": n_paths, "ensemble_manifest": manifest_path.name,
                   "files": n_paths})
    # fold the experiment hash into the saved manifest as well
    manifest = json.loads(manifest_path.read_text())
    manifest["config_sha256"] = report["config_sha256"]
    manifest["truncation_tail"] = report["truncation_tail"]
    manifest_path.write_text(json.dumps(_sanitize(manifest), sort_keys=True,
                                        indent=2) + "\n")
    _write_json(out / "sample_report.json", report)
    _say(args, f"sample: wrote {n_paths} paths to {out / 'ensemble'}")


def cmd_covariance(args, cfg: dict, resolved: dict) -> None:
    measure = _measure_from(cfg)
    lattice = _lattice_from(cfg)
    params = cfg.get("covariance", {})
    n_points = _int_param(params, "covariance", "n_points", 8, 1)
    n_paths = _int_param(params, "covariance", "n_paths", 4000, 2)
    seed = int(resolved["seed"])
    out = _out_dir(args, cfg)

    rng = np.random.default_rng([seed, 101])
    pts_idx = []
    for _ in range(n_points):
        m = int(rng.integers(1, lattice.n_time + 1))
        j = tuple(int(rng.integers(0, n)) for n in lattice.n_space)
        pts_idx.append((m, j))
    pts_phys = [lattice.grid_point(m, j) for m, j in pts_idx]

    model = simulate.NoiseModel(measure, lattice)
    mc = simulate.mc_covariance(model, pts_idx, seed, n_paths)
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
    report = _base_report(resolved, measure, lattice)
    report.update({"n_points": n_points, "n_paths": n_paths,
                   "max_abs_z": max_z, "points": pts_phys,
                   "psd_min_eig": C.meta["min_eig"]})
    _write_json(out / "covariance_report.json", report)
    _write_csv(out / "covariance_pairs.csv",
               ["i", "j", "oracle", "mc", "stderr", "z"], rows)
    _say(args, f"covariance: max |z| = {max_z:.3f} over "
               f"{len(rows)} pairs ({n_paths} paths)")


def cmd_rkhs(args, cfg: dict, resolved: dict) -> None:
    measure = _measure_from(cfg)
    lattice = _lattice_from(cfg)
    params = cfg.get("rkhs", {})
    samples = _int_param(params, "rkhs", "samples", 120, 100)
    seed = int(resolved["seed"])
    out = _out_dir(args, cfg)

    rng = np.random.default_rng([seed, 202])
    phi = random_band_limited(lattice, rng)
    elem = rkhs.representer(phi, measure)
    eta = random_band_limited(lattice, rng)
    dual = rkhs.duality_check(elem, eta)
    if dual["gap"] > 1e-8:
        raise InvariantViolation(
            f"duality gap {dual['gap']:.3e} > 1e-8")
    study = rkhs.norm_equivalence_study(samples, measure, lattice,
                                        seed=seed + 1)
    report = _base_report(resolved, measure, lattice)
    report.update({"probe": elem.probe_report, "duality": dual,
                   "norm_equivalence": study})
    _write_json(out / "rkhs_report.json", report)
    _write_csv(out / "rkhs_probes.csv",
               ["point", "direct", "solver", "rel_err"],
               [{**p, "point": json.dumps(p["point"])}
                for p in elem.probe_report["probes"]])
    _say(args, f"rkhs: probe max rel err {elem.probe_report['max_rel_err']:.2e}, "
               f"duality gap {dual['gap']:.2e}, "
               f"norm-equivalence spread {study['spread']:.2f}")


def cmd_markov(args, cfg: dict, resolved: dict) -> None:
    measure = _measure_from(cfg)
    lattice = _lattice_from(cfg)
    params = cfg.get("markov", {})
    widths = list(params.get("band_widths", []))
    if not widths:
        raise UsageError("markov.band_widths is empty")
    rect_cfg = params.get("rect")
    if not rect_cfg:
        raise UsageError("markov.rect is required: {t: [lo, hi], x: [[lo, hi], ...]}")
    try:
        rect = (tuple(float(v) for v in rect_cfg["t"]),) + tuple(
            tuple(float(v) for v in pair) for pair in rect_cfg["x"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("markov.rect must be {t: [lo, hi], x: [[lo, hi], ...]}, "
                         f"got {rect_cfg!r}") from exc
    t_stride = _int_param(params, "markov", "time_stride", 1, 1)
    s_stride = _int_param(params, "markov", "space_stride", 1, 1)
    refine = _int_param(params, "markov", "oracle_refine", 1, 1)
    out = _out_dir(args, cfg)

    points = []
    for m in range(1, lattice.n_time + 1, t_stride):
        for j in np.ndindex(*lattice.n_space):
            if any(ji % s_stride for ji in j):
                continue
            points.append(lattice.grid_point(m, j))
    if len(points) > 4096:
        raise UsageError(f"{len(points)} points exceed the dense limit 4096; "
                         "increase time_stride/space_stride")

    # The covariance oracle sums over the quadrature lattice's frequency
    # grid; refining it in space sharpens the oracle toward the continuum
    # covariance while the observation grid (points, band widths) is fixed.
    quad_lattice = lattice
    if refine > 1:
        quad_lattice = SpaceTimeLattice(
            lattice.dim, lattice.extent,
            tuple(n * refine for n in lattice.n_space),
            lattice.t_max, lattice.n_time)
    C = markov.assemble_covariance(measure, quad_lattice, points)
    study = markov.band_width_study(C, rect, widths, partition_lattice=lattice)
    increasing_widths = all(b > a for a, b in zip(widths, widths[1:]))
    if increasing_widths and not study["non_increasing"]:
        raise InvariantViolation(
            "screening statistic max_abs_cond_corr is not non-increasing "
            "in band width")
    report = _base_report(resolved, measure, lattice)
    report.update({"band_widths": widths, "rect": rect,
                   "n_points": len(points),
                   "oracle_refine": refine,
                   "non_increasing": study["non_increasing"],
                   "psd_min_eig": C.meta["min_eig"],
                   "rows": study["rows"]})
    _write_json(out / "markov_report.json", report)
    _write_csv(out / "markov_bands.csv",
               ["band_width", "max_abs_cond_corr", "inside", "band",
                "outside", "ridge", "band_condition_number"],
               study["rows"])
    stats = ", ".join(f"{r['band_width']}: {r['max_abs_cond_corr']:.2e}"
                      for r in study["rows"])
    _say(args, f"markov: max |conditional corr| by band width -> {stats}")


def cmd_riemann(args, cfg: dict, resolved: dict) -> None:
    measure = _measure_from(cfg)
    params = cfg.get("riemann", {})
    levels = [int(v) for v in params.get("levels", [8, 16, 32])]
    extent = tuple(float(v) for v in params.get("extent", [8.0]))
    t_max = float(params.get("t_max", 1.0))
    bump_cfg = params.get("bump", {})
    bump = pde.BumpSpec(
        t_center=float(bump_cfg.get("t_center", 0.5 * t_max)),
        t_width=float(bump_cfg.get("t_width", 0.25 * t_max)),
        x_center=tuple(float(v) for v in bump_cfg.get(
            "x_center", [0.5 * L for L in extent])),
        x_width=tuple(float(v) for v in bump_cfg.get(
            "x_width", [0.15 * L for L in extent])),
    )
    if not all(w > 0 for w in (bump.t_width, *bump.x_width)):
        raise UsageError("riemann.bump widths must be positive, got t_width "
                         f"{bump.t_width} and x_width {list(bump.x_width)}")
    out = _out_dir(args, cfg)
    study = pde.riemann_convergence_study(measure, bump, levels, extent, t_max)
    if not study["monotone"]:
        raise InvariantViolation(
            "riemann study error column norm0_error is not strictly decreasing")
    ref_lat = SpaceTimeLattice(len(extent), extent,
                               (study["reference"]["n_space"],) * len(extent),
                               t_max, study["reference"]["n_time"])
    report = _base_report(resolved, measure, ref_lat)
    report.update({"levels": levels, "rows": study["rows"],
                   "monotone": study["monotone"],
                   "min_observed_order": study["min_observed_order"]})
    _write_json(out / "riemann_report.json", report)
    _write_csv(out / "riemann_levels.csv",
               ["level", "n_space", "n_time", "norm0_error", "observed_order"],
               study["rows"])
    _say(args, "riemann: errors " +
         ", ".join(f"{r['norm0_error']:.3e}" for r in study["rows"]))


_COMMANDS = {"sample": cmd_sample, "covariance": cmd_covariance,
             "rkhs": cmd_rkhs, "markov": cmd_markov, "riemann": cmd_riemann}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args.config)
        resolved = _resolve(args, cfg)
        _COMMANDS[args.command](args, cfg, resolved)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DalangConditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One round of one workload, run in a fresh interpreter by ``run.py``.

A round imports spde_lab from the checkout's ``src/``, builds the workload's
inputs from the workload seed (configs, point sets and test fields), runs the
workload's ops through the public API and the ``spde-lab`` CLI entry point,
and writes one JSON result: set-up time, one span per op, each op's gate
verdict and sha256 digest, work counts computed from the inputs, peak RSS,
and (traced rounds) the per-layer counters from ``tracer.py``.

Gates and reference checks run outside the op spans, with the tracer paused,
so they cost neither op time nor traced calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

BESSEL2 = {"family": "bessel", "alpha": 2.0, "dim": 1}
Z_GATE = 4.0
TOL_GATE = 1e-8
FLD_HEADER_BYTES = 64  # magic, dim, n_space, n_time, extent, t_max, rep, layout (1-D)


def _lattice(extent, n_space, n_time):
    return {"dim": 1, "extent": [extent], "n_space": [n_space],
            "t_max": 1.0, "n_time": n_time}


def _tree_digest(directory: Path) -> str:
    """sha256 over every file below ``directory``: relative name, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _array_digest(*arrays) -> str:
    import numpy as np
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``gate`` and ``digest`` are not."""

    id: str
    run: Callable[[], Any]
    gate: Callable[[Any], tuple]      # value -> (ok, detail)
    digest: Callable[[Any], str]      # value -> sha256 hex
    path_steps: int = 0               # paths x time steps, MC ops only


class Workload:
    """Inputs of one workload, generated from the workload seed."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.work = {}
        self.ops = []

    def child_seed(self, k: int) -> int:
        import numpy as np
        entropy = [self.seed & (2**64 - 1), k]
        return int(np.random.SeedSequence(entropy).generate_state(1)[0])

    def cli_op(self, op_id, command, cfg, gate, path_steps=0):
        import yaml
        from spde_lab import cli
        cfg_path = self.workdir / f"{op_id}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        out = self.workdir / op_id

        def run():
            rc = cli.main([command, "--config", str(cfg_path), "--out", str(out),
                           "--quiet"])
            if rc != 0:
                raise RuntimeError(f"spde-lab {command} exited {rc}")
            return out

        self.ops.append(Op(op_id, run, gate, _tree_digest, path_steps))


# -- workloads ------------------------------------------------------------------


def mc_pathwise(w: Workload) -> None:
    """Pathwise MC reductions: few numbers of state per path."""
    import numpy as np
    from spde_lab import lattice, simulate, spectral

    n_paths, n_time = 1000, 32
    cfg = {"measure": BESSEL2, "lattice": _lattice(8.0, 32, n_time),
           "seed": w.child_seed(1),
           "covariance": {"n_points": 8, "n_paths": n_paths}}

    def cov_gate(out):
        rep = json.loads((out / "covariance_report.json").read_text())
        ok = rep["max_abs_z"] <= Z_GATE and rep["n_points"] == 8
        return ok, f"max|z| {rep['max_abs_z']:.3f} over {rep['n_points']} points"

    w.cli_op("covariance_cli", "covariance", cfg, cov_gate, n_paths * n_time)

    iso_paths, iso_time = 500, 32
    lat = lattice.SpaceTimeLattice(1, (8.0,), (64,), 1.0, iso_time)
    measure = spectral.SpectralMeasure("bessel", 2.0, 1)
    rng = np.random.default_rng(w.child_seed(2))
    phis = [lattice.random_band_limited(lat, rng) for _ in range(20)]
    iso_seed = w.child_seed(3)

    def iso_run():
        model = simulate.NoiseModel(measure, lat)
        return simulate.mc_isometry_batch(model, phis, iso_seed, iso_paths)

    def iso_gate(rows):
        z = max(abs(r["z_score"]) for r in rows)
        return z <= Z_GATE, f"max|z| {z:.3f} over {len(rows)} fields"

    def iso_digest(rows):
        return _array_digest(np.array([[r["mc_var"], r["exact"], r["z_score"]]
                                       for r in rows]))

    w.ops.append(Op("isometry_batch", iso_run, iso_gate, iso_digest,
                    iso_paths * iso_time))
    w.work.update(matrix_points=8, quad_modes=32)


def mc_trajectory(w: Workload) -> None:
    """Whole trajectories: inverse transforms, .fld containers, full buffers."""
    import numpy as np
    from spde_lab import lattice, rkhs, simulate, spectral

    n_paths, n_space, n_time = 128, 64, 32
    sample_seed = w.child_seed(1)
    cfg = {"measure": BESSEL2, "lattice": _lattice(8.0, n_space, n_time),
           "seed": sample_seed, "sample": {"n_paths": n_paths}}
    fld_bytes = n_paths * (FLD_HEADER_BYTES + (n_time + 1) * n_space * 16)
    ens_dir = w.workdir / "sample_cli" / "ensemble"

    def sample_gate(out):
        on_disk = sum(p.stat().st_size for p in ens_dir.glob("*.fld"))
        rep = json.loads((out / "sample_report.json").read_text())
        ok = on_disk == fld_bytes and rep["files"] == n_paths
        return ok, f"{rep['files']} files, {on_disk} B (expected {fld_bytes} B)"

    w.cli_op("sample_cli", "sample", cfg, sample_gate, n_paths * n_time)

    measure = spectral.SpectralMeasure("bessel", 2.0, 1)
    sample_lat = lattice.SpaceTimeLattice(1, (8.0,), (n_space,), 1.0, n_time)

    def load_gate(ens):
        ref = simulate.simulate_u(measure, sample_lat, sample_seed, n_paths)
        ok = (ens.n_paths == n_paths and ens.values.shape == ref.values.shape
              and bool(np.array_equal(ens.values, ref.values)))
        return ok, "load-back equals a fresh simulate_u" if ok else "load-back differs"

    w.ops.append(Op("ensemble_load", lambda: simulate.PathEnsemble.load(ens_dir),
                    load_gate, lambda ens: _array_digest(ens.values)))

    rf_paths, rf_time = 4000, 8
    lat = lattice.SpaceTimeLattice(1, (8.0,), (32,), 1.0, rf_time)
    phi = lattice.random_band_limited(lat, np.random.default_rng(w.child_seed(2)))
    rf_seed = w.child_seed(3)

    def rf_run():
        return simulate.mc_representer_field(simulate.NoiseModel(measure, lat),
                                             phi, rf_seed, rf_paths)

    def rf_gate(mc):
        h = rkhs.representer(phi, measure).h.real_values()
        se = np.where(mc["stderr"] > 0, mc["stderr"], 1.0)
        z = float(np.max(np.abs((mc["estimate"] - h) / se)))
        return z <= Z_GATE, f"max|z| {z:.3f} over {h.size} points"

    w.ops.append(Op("representer_field", rf_run, rf_gate,
                    lambda mc: _array_digest(mc["estimate"], mc["stderr"]),
                    rf_paths * rf_time))
    w.work.update(ensemble_bytes_written=fld_bytes, ensemble_bytes_read=fld_bytes)


def _band_sizes(t_idx, x_idx, rect_idx, width):
    """Inside/band/outside counts from the documented partition rule.

    Coordinates and the rectangle are in lattice-cell units per axis; the
    signed Chebyshev distance to the rectangle's boundary is positive inside,
    and the band holds every point with |distance| <= width.
    """
    import numpy as np
    (t_lo, t_hi), (x_lo, x_hi) = rect_idx
    margin = np.minimum.reduce([t_idx - t_lo, t_hi - t_idx, x_idx - x_lo, x_hi - x_idx])
    deficit = np.maximum.reduce([t_lo - t_idx, t_idx - t_hi, x_lo - x_idx,
                                 x_idx - x_hi, np.zeros_like(t_idx)])
    signed = np.where(margin > 0, margin, -deficit)
    return (int(np.sum(signed > width)), int(np.sum(np.abs(signed) <= width)),
            int(np.sum(signed < -width)))


def screening(w: Workload) -> None:
    """Dense covariance assembly, PSD validation and band Cholesky screens."""
    import numpy as np

    n_space, n_time, extent, stride, refine = 32, 64, 4.0, 4, 8
    widths = [1, 2, 3, 4]
    rect = {"t": [-1.0, 2.0], "x": [[1.0, 3.0]]}
    cfg = {"measure": BESSEL2, "lattice": _lattice(extent, n_space, n_time),
           "seed": w.child_seed(1),
           "markov": {"band_widths": widths, "rect": rect,
                      "time_stride": stride, "oracle_refine": refine}}
    t_idx, x_idx = (a.ravel().astype(float) for a in np.meshgrid(
        np.arange(1, n_time + 1, stride), np.arange(n_space), indexing="ij"))
    n_points = t_idx.size
    cell = extent / n_space
    rect_idx = ([v * n_time for v in rect["t"]], [v / cell for v in rect["x"][0]])
    sizes = [_band_sizes(t_idx, x_idx, rect_idx, bw) for bw in widths]

    def gate(out):
        rep = json.loads((out / "markov_report.json").read_text())
        got = [(r["inside"], r["band"], r["outside"]) for r in rep["rows"]]
        ok = rep["non_increasing"] and rep["n_points"] == n_points and got == sizes
        stats = "/".join(f"{r['max_abs_cond_corr']:.1e}" for r in rep["rows"])
        return ok, (f"non_increasing {rep['non_increasing']} ({stats}); "
                    f"P {rep['n_points']}; sizes {got} vs {sizes}")

    w.cli_op("markov_cli", "markov", cfg, gate)
    w.work.update(matrix_points=n_points, quad_modes=n_space * refine,
                  inside_points=sum(s[0] for s in sizes),
                  band_points=sum(s[1] for s in sizes),
                  outside_points=sum(s[2] for s in sizes))


def heat_rkhs(w: Workload) -> None:
    """Deterministic layers: heat marching, heat columns, Riemann kernel sums."""
    rkhs_cfg = {"measure": BESSEL2, "lattice": _lattice(8.0, 32, 64),
                "seed": w.child_seed(1), "rkhs": {"samples": 2000}}

    def rkhs_gate(out):
        rep = json.loads((out / "rkhs_report.json").read_text())
        probe, gap = rep["probe"]["max_rel_err"], rep["duality"]["gap"]
        ne = rep["norm_equivalence"]
        ok = probe <= TOL_GATE and gap <= TOL_GATE and ne["spread"] <= ne["spread_bound"]
        return ok, (f"probe {probe:.1e}, duality {gap:.1e}, "
                    f"spread {ne['spread']:.2f} <= {ne['spread_bound']}")

    w.cli_op("rkhs_cli", "rkhs", rkhs_cfg, rkhs_gate)

    riemann_cfg = {"measure": BESSEL2, "seed": w.child_seed(2),
                   "riemann": {"levels": [16, 32, 64], "extent": [8.0],
                               "t_max": 1.0,
                               "bump": {"t_center": 0.5, "t_width": 0.3,
                                        "x_center": [4.0], "x_width": [1.0]}}}

    def riemann_gate(out):
        rep = json.loads((out / "riemann_report.json").read_text())
        errs = ", ".join(f"{r['norm0_error']:.2e}" for r in rep["rows"])
        return bool(rep["monotone"]), f"monotone {rep['monotone']} ({errs})"

    w.cli_op("riemann_cli", "riemann", riemann_cfg, riemann_gate)


WORKLOADS = {"mc_pathwise": mc_pathwise, "mc_trajectory": mc_trajectory,
             "screening": screening, "heat_rkhs": heat_rkhs}


# -- round ----------------------------------------------------------------------


def _versions() -> dict:
    import ctypes
    import numpy
    import scipy
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": None,
            "openblas_threads": None}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:  # no procfs: leave the thread count unknown
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["openblas_threads"] = int(fn())
                break
    return info


def run_round(args) -> dict:
    sys.path.insert(0, str(SRC))
    import spde_lab
    if Path(spde_lab.__file__).resolve().parent != SRC / "spde_lab":
        raise RuntimeError(f"spde_lab imported from {spde_lab.__file__}, not {SRC}")
    workload = Workload(args.seed, Path(args.workdir))
    WORKLOADS[args.workload](workload)
    setup_s = time.monotonic() - args.spawn

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = []
    t_base = time.perf_counter()
    for op in workload.ops:
        rec = {"id": op.id, "path_steps": op.path_steps, "ok": False,
               "detail": "", "digest": None}
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception:
            value = None
            rec["detail"] = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        rec.update(start=t0 - t_base, end=t1 - t_base, wall_s=t1 - t0)
        if value is not None:
            if tracer:
                tracer.paused = True
            try:
                rec["ok"], rec["detail"] = op.gate(value)
                rec["digest"] = op.digest(value)
            except Exception:
                rec["ok"] = False
                rec["detail"] = traceback.format_exc(limit=3)
            if tracer:
                tracer.paused = False
        ops.append(rec)
    if tracer:
        tracer.remove()

    work = {"path_steps": sum(o.path_steps for o in workload.ops),
            "unit_draws": sum(o.path_steps for o in workload.ops)}
    work.update(workload.work)
    return {"workload": args.workload, "seed": args.seed,
            "traced": bool(args.trace), "setup_s": setup_s,
            "wall_s": sum(o["wall_s"] for o in ops), "ops": ops,
            "work": work,
            "layers": tracer.snapshot() if tracer else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": _versions()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn", type=float, required=True,
                   help="time.monotonic() of the parent just before spawning")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    result = run_round(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

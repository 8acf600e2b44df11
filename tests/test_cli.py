"""Command-line contract: exit codes, report schema, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from spde_lab import cli
from spde_lab.cli import _check_config, main

DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.yaml"))


def _write_cfg(path, cfg):
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _base_cfg(out, family="bessel", alpha=2.0, n_space=16, n_time=16,
              extent=4.0, t_max=0.5, **extra):
    cfg = {
        "measure": {"family": family, "alpha": alpha, "dim": 1},
        "lattice": {"dim": 1, "extent": [extent], "n_space": [n_space],
                    "t_max": t_max, "n_time": n_time},
        "seed": 7,
        "out": str(out),
    }
    cfg.update(extra)
    return cfg


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


REPORT_KEYS = {"config_sha256", "rng_id", "lattice", "measure", "truncation_tail"}


# -- exit codes ------------------------------------------------------------------


def test_bad_flags_exit_1(capsys):
    assert main(["sample"]) == 1                       # missing --config
    assert main(["sample", "--config", "/nonexistent/x.yaml"]) == 1
    capsys.readouterr()


def test_non_mapping_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("- 1\n- 2\n")
    assert main(["sample", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_dalang_failure_exit_2(tmp_path, capsys):
    cfg = _base_cfg(tmp_path / "out")
    cfg["measure"] = {"family": "riesz", "alpha": 1.0, "dim": 5}
    cfg["lattice"] = {"dim": 5, "extent": [4.0] * 5, "n_space": [4] * 5,
                      "t_max": 0.5, "n_time": 4}
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["sample", "--config", path]) == 2
    assert "precondition" in capsys.readouterr().err


def test_empty_band_widths_exit_1(tmp_path, capsys):
    cfg = _base_cfg(tmp_path / "out",
                    markov={"band_widths": [],
                            "rect": {"t": [0.125, 0.375], "x": [[1.0, 3.0]]}})
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["markov", "--config", path]) == 1
    capsys.readouterr()


def test_missing_out_dir_exit_1(tmp_path, capsys):
    cfg = _base_cfg(tmp_path / "out")
    del cfg["out"]
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["sample", "--config", path]) == 1
    capsys.readouterr()


def test_negative_seed_exit_1(tmp_path, capsys):
    cfg = _base_cfg(tmp_path / "out", sample={"n_paths": 1})
    cfg["seed"] = -1
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["sample", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_markov_rect_without_t_exit_1(tmp_path, capsys):
    cfg = _base_cfg(tmp_path / "out",
                    markov={"band_widths": [1], "rect": {"x": [[1.0, 3.0]]}})
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["markov", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


_MARKOV = {"band_widths": [1], "rect": {"t": [0.125, 0.375], "x": [[1.0, 3.0]]}}
_RIEMANN = {"levels": [8, 16, 32], "extent": [8.0], "t_max": 1.0}
# the lattice is checked, not used: the study's box is riemann.extent
_RIEMANN_DIM_2 = {"measure": {"family": "bessel", "alpha": 2.0, "dim": 2},
                  "lattice": {"dim": 2, "extent": [4.0, 4.0], "n_space": [16, 16],
                              "t_max": 0.5, "n_time": 16},
                  "riemann": _RIEMANN}


@pytest.mark.parametrize("command, section", [
    ("markov", {"markov": {**_MARKOV, "time_stride": 0}}),
    ("markov", {"markov": {**_MARKOV, "space_stride": 0}}),
    ("covariance", {"covariance": {"n_points": 2, "n_paths": -3}}),
    ("covariance", {"covariance": {"n_points": 2, "n_paths": 1}}),
    ("covariance", {"covariance": {"n_points": 0, "n_paths": 2}}),
    ("rkhs", {"rkhs": {"samples": 50}}),
    ("sample", {"sample": {"n_paths": 0}}),
    ("riemann", {"riemann": {**_RIEMANN, "bump": {"x_width": [0]}}}),
    ("riemann", {"riemann": {**_RIEMANN, "bump": {"t_width": -0.1}}}),
    ("sample", {"sample": 5}),
    ("markov", {"markov": {**_MARKOV, "band_widths": 3}}),
    ("markov", {"markov": {**_MARKOV, "band_widths": ["x"]}}),
    ("riemann", {"riemann": {**_RIEMANN, "extent": 8}}),
    ("sample", {"out": "file/out"}),
    ("sample", {"out": "file"}),
    ("sample", {"sample": {"n_pathz": 2}}),
    ("sample", {"smaple": {"n_paths": 2}}),
    ("rkhs", {"rkhs": {"samples": 100.7}}),
    ("sample", {"seed": 1.5}),
    ("sample", {"seed": True}),
    ("markov", {"markov": {**_MARKOV,
                           "rect": {"t": [0.125, 0.375],
                                    "x": [[1.0, 3.0], [0.0, 0.1]]}}}),
    ("riemann", {"riemann": {**_RIEMANN, "levels": [8, 16]}}),
    ("riemann", {"riemann": {**_RIEMANN, "levels": [16, 8, 32]}}),
    ("riemann", {"riemann": {**_RIEMANN, "levels": ["a", "b", "c"]}}),
    ("riemann", {"riemann": {**_RIEMANN, "bump": {"t_width": "x"}}}),
    ("riemann", {"riemann": {**_RIEMANN, "bump": {"x_center": [4.0, 100.0]}}}),
    ("markov", {"markov": {**_MARKOV, "band_widths": [0]}}),
    ("markov", {"markov": {**_MARKOV, "oracle_refine": 3}}),
    ("rkhs", {"measure": {"family": "white", "dim": 1}}),
    ("covariance", {"measure": {"family": "bessel", "alpha": 2.0, "dim": 2},
                    "covariance": {"n_points": 2, "n_paths": 2}}),
    ("markov", {"measure": {"family": "bessel", "alpha": 2.0, "dim": 2},
                "markov": _MARKOV}),
    ("riemann", {"riemann": {**_RIEMANN, "levels": [10, 20, 30]}}),
    ("riemann", _RIEMANN_DIM_2),
], ids=["time_stride_0", "space_stride_0", "covariance_paths_-3",
        "covariance_paths_1", "covariance_points_0", "rkhs_samples_50",
        "sample_paths_0", "riemann_x_width_0",
        "riemann_t_width_negative", "sample_not_mapping",
        "band_widths_scalar", "band_widths_text", "riemann_extent_scalar",
        "out_under_file", "out_is_file", "sample_key_typo", "top_key_typo",
        "rkhs_samples_float", "seed_float", "seed_bool", "rect_x_extra_pair",
        "riemann_levels_two", "riemann_levels_unordered",
        "riemann_levels_text", "riemann_t_width_text",
        "riemann_x_center_extra", "band_widths_0", "oracle_refine_3",
        "rkhs_white_measure", "covariance_measure_dim_2",
        "markov_measure_dim_2", "riemann_levels_last_not_power_of_two",
        "riemann_measure_dim_2"])
def test_bad_config_value_exit_1(tmp_path, capsys, command, section):
    cfg = {**_base_cfg(tmp_path / "out"), **section}
    (tmp_path / "file").write_text("")
    cfg["out"] = str(tmp_path / cfg["out"])  # relative outs sit beside "file"
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main([command, "--config", path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_unexpected_error_exit_4(tmp_path, capsys, monkeypatch):
    """A defect inside a command exits 4 with one line and no traceback."""
    def broken(*args):
        """Fail like a defect would."""  # the parser builds help from docstrings
        raise RuntimeError("lost a path\nsomewhere")

    monkeypatch.setitem(cli._COMMANDS, "sample", (broken, *cli._COMMANDS["sample"][1:]))
    path = _write_cfg(tmp_path / "c.yaml", _base_cfg(tmp_path / "out"))
    assert main(["sample", "--config", path, "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: lost a path somewhere\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_matches_schema(path):
    """Each demo config passes its command's schema (the command is not run)."""
    _check_config(path.stem, yaml.safe_load(path.read_text()))


# -- sample ----------------------------------------------------------------------


def test_sample_count_contract_and_schema(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_cfg(out, sample={"n_paths": 5})
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["sample", "--config", path, "--quiet"]) == 0
    fields = sorted((out / "ensemble").glob("path_*.fld"))
    assert len(fields) == 5
    report = json.loads((out / "sample_report.json").read_text())
    assert REPORT_KEYS <= set(report)
    manifest = json.loads((out / "ensemble" / "manifest.json").read_text())
    assert manifest["config_sha256"] == report["config_sha256"]
    assert len(manifest["files"]) == 5
    assert capsys.readouterr().out == ""  # --quiet honored


def test_sample_rerun_byte_identical(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = _base_cfg(out, sample={"n_paths": 3})
        path = _write_cfg(tmp_path / f"{tag}.yaml", cfg)
        assert main(["sample", "--config", path, "--quiet"]) == 0
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_seed_override_changes_hash_and_paths(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_path = _write_cfg(tmp_path / "c.yaml",
                          _base_cfg(out_a, sample={"n_paths": 2}))
    assert main(["sample", "--config", cfg_path, "--quiet"]) == 0
    assert main(["sample", "--config", cfg_path, "--quiet",
                 "--seed", "8", "--out", str(out_b)]) == 0
    rep_a = json.loads((out_a / "sample_report.json").read_text())
    rep_b = json.loads((out_b / "sample_report.json").read_text())
    assert rep_a["config_sha256"] != rep_b["config_sha256"]
    assert ((out_a / "ensemble" / "path_00000.fld").read_bytes()
            != (out_b / "ensemble" / "path_00000.fld").read_bytes())
    capsys.readouterr()


# -- covariance --------------------------------------------------------------------


def test_covariance_report_and_rerun(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = _base_cfg(out, covariance={"n_points": 4, "n_paths": 400})
        path = _write_cfg(tmp_path / f"{tag}.yaml", cfg)
        assert main(["covariance", "--config", path, "--quiet"]) == 0
        outs.append(_tree_bytes(out))
    assert outs[0] == outs[1]
    report = json.loads((tmp_path / "a" / "covariance_report.json").read_text())
    assert REPORT_KEYS <= set(report)
    assert report["max_abs_z"] < 6.0  # loose: 400 paths, 10 pairs
    with open(tmp_path / "a" / "covariance_pairs.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 5 // 2
    capsys.readouterr()


# -- rkhs --------------------------------------------------------------------------


def test_rkhs_report_schema(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_cfg(out, rkhs={"samples": 100})
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["rkhs", "--config", path, "--quiet"]) == 0
    report = json.loads((out / "rkhs_report.json").read_text())
    assert REPORT_KEYS <= set(report)
    assert report["probe"]["max_rel_err"] <= 1e-8
    assert report["duality"]["gap"] <= 1e-8
    assert report["norm_equivalence"]["spread"] <= 20.0
    with open(out / "rkhs_probes.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 8
    capsys.readouterr()


# -- markov ------------------------------------------------------------------------


def test_markov_csv_non_increasing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_cfg(out, markov={
        "band_widths": [1, 2, 3, 4],
        "rect": {"t": [0.125, 0.375], "x": [[1.0, 3.0]]},
        "oracle_refine": 4,
    })
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["markov", "--config", path, "--quiet"]) == 0
    with open(out / "markov_bands.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    stats = [float(r["max_abs_cond_corr"]) for r in rows]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(stats, stats[1:]))
    report = json.loads((out / "markov_report.json").read_text())
    assert report["non_increasing"] is True
    assert report["oracle_refine"] == 4
    capsys.readouterr()


def test_markov_point_budget_exit_1(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_cfg(out, n_space=128, n_time=64, markov={
        "band_widths": [1],
        "rect": {"t": [0.125, 0.375], "x": [[1.0, 3.0]]},
    })
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["markov", "--config", path, "--quiet"]) == 1
    capsys.readouterr()


# -- riemann -----------------------------------------------------------------------


def test_riemann_decreasing_errors(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_cfg(out, riemann={"levels": [8, 16, 32], "extent": [8.0],
                                  "t_max": 1.0})
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["riemann", "--config", path, "--quiet"]) == 0
    with open(out / "riemann_levels.csv") as fh:
        rows = list(csv.DictReader(fh))
    errs = [float(r["norm0_error"]) for r in rows]
    assert len(errs) == 3
    assert all(b < a for a, b in zip(errs, errs[1:]))
    report = json.loads((out / "riemann_report.json").read_text())
    assert REPORT_KEYS <= set(report)
    capsys.readouterr()


def test_riemann_two_dimensional_exit_0(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base_cfg(out, riemann={"levels": [4, 8, 16], "extent": [8.0, 8.0]})
    cfg["measure"]["dim"] = 2
    del cfg["lattice"]
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["riemann", "--config", path, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads((out / "riemann_report.json").read_text())["rows"]
    errs = [r["norm0_error"] for r in rows]
    assert len(errs) == 3 and all(b < a for a, b in zip(errs, errs[1:]))


def test_riemann_dimension_refusal_names_extent(tmp_path, capsys):
    """A 1-D riemann.extent under a 2-D measure and lattice: the key at fault
    is extent, not a lattice of the config."""
    path = _write_cfg(tmp_path / "c.yaml", {**_base_cfg(tmp_path / "out"), **_RIEMANN_DIM_2})
    assert main(["riemann", "--config", path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: measure dim 2 != 1, the length of extent (8.0,)")


def test_riemann_that_resolves_nothing_exit_3(tmp_path, capsys):
    """At t_max = 1e-13 the kernel (width sqrt(4 t_max) ~ 6e-7) is far below a
    cell (0.25): the errors decrease, but each is ~1e6 times ||phi||_0, the
    error of the zero field."""
    cfg = _base_cfg(tmp_path / "out", riemann={**_RIEMANN, "t_max": 1.0e-13})
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["riemann", "--config", path, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant failed: riemann study resolves nothing")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bump", [{"t_center": 5.0}, {"x_width": [20.0]},
                                  {"t_center": 0.51, "t_width": 0.001}],
                         ids=["after_t_max", "across_the_seam", "between_time_steps"])
def test_riemann_bad_bump_exit_1(tmp_path, capsys, bump):
    """A bump past t_max, or between the reference lattice's time steps, gives
    zero forcing; one across the spatial seam is wrapped by the sampled
    reference but not by the Riemann sums."""
    cfg = _base_cfg(tmp_path / "out", riemann={**_RIEMANN, "bump": bump})
    path = _write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["riemann", "--config", path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: BumpSpec(") and err.count("\n") == 1


# -- pinned output bytes -------------------------------------------------------------

# sha256 over (relative path, bytes) of each output tree for criterion 12's
# small configs (numpy 2.4, OpenBLAS, x86-64; another FFT or BLAS may round
# differently).  markov's eigen and Cholesky solves round differently at
# different OpenBLAS thread counts, so markov runs them on one thread of
# each library whatever the setting; its tree is checked in child processes
# under OPENBLAS_NUM_THREADS=1 and under the default, against one digest.
PINNED_TREES = {
    "sample": ({"sample": {"n_paths": 3}},
               "06575aef03789495da5c8a0f9f545eda8f6989f8986ff6e403c99e93cafd9328"),
    "covariance": ({"covariance": {"n_points": 4, "n_paths": 300}},
                   "310f6e8bd4e113a39af81da24301940014637f93c5c05a5a248f7c418df88a43"),
    "rkhs": ({"rkhs": {"samples": 100}},
             "471414e436812353100d6f1b5bf09d695066d0916c48da09cf443943b7b21b48"),
    "riemann": ({"riemann": {"levels": [8, 16, 32], "extent": [8.0], "t_max": 1.0}},
                "5f0693067163d03bdcaea01dcd6ce2694f8bf44f3440ab4ced23e01ae1ac094d"),
    "markov": ({"markov": _MARKOV},
               "1136c6a63a85ffb58429bedbdb719e9b6c85be2af149d0eec26371f13f7000a0"),
}


def _child_env(threads) -> dict:
    """The environment of a child process that imports this checkout's
    spde_lab and runs OpenBLAS with ``threads`` threads (None: the default)."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=pythonpath, **({} if threads is None else
                                                {"OPENBLAS_NUM_THREADS": threads}))


@pytest.mark.parametrize("command", sorted(PINNED_TREES))
def test_output_tree_matches_pinned_digest(tmp_path, capsys, command):
    extra, pinned = PINNED_TREES[command]
    for threads in ("1", None) if command == "markov" else ("in-process",):
        out = tmp_path / str(threads)
        path = _write_cfg(tmp_path / "c.yaml", _base_cfg(out, **extra))
        if command == "markov":
            run = subprocess.run(
                [sys.executable, "-m", "spde_lab.cli", command, "--config", path, "--quiet"],
                capture_output=True, text=True, timeout=300, env=_child_env(threads))
            assert run.returncode == 0, run.stderr
        else:
            assert main([command, "--config", path, "--quiet"]) == 0
        digest = hashlib.sha256()
        for rel, blob in _tree_bytes(out).items():
            digest.update(rel.as_posix().encode() + b"\0" + blob)
        assert digest.hexdigest() == pinned, threads
    capsys.readouterr()


# Runs the covariance and sample configs of PINNED_TREES, then prints the
# bytes of test_simulate's pinned isometry rows.
_BLAS_CHILD = """
import numpy as np
from spde_lab import (NoiseModel, SpaceTimeLattice, SpectralMeasure,
                      mc_isometry_batch, random_band_limited)
from spde_lab.cli import main

for command in ("covariance", "sample"):
    assert main([command, "--config", command + ".yaml", "--quiet"]) == 0
lat = SpaceTimeLattice(1, (8.0,), (16,), 1.0, 8)
rng = np.random.default_rng(4)
phis = [random_band_limited(lat, rng) for _ in range(3)]
model = NoiseModel(SpectralMeasure("bessel", 2.0, 1), lat)
rows = mc_isometry_batch(model, phis, seed=8, n_paths=50)
print(np.array([[r["mc_var"], r["exact"], r["z_score"]] for r in rows]).tobytes().hex())
"""


def test_mc_outputs_do_not_depend_on_blas_threads(tmp_path):
    """The per-chunk gemv pairing and point capture give the same bytes under
    one and two OpenBLAS threads without a pin (markov pins one, see above)."""
    results = []
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        for command in ("covariance", "sample"):
            _write_cfg(work / f"{command}.yaml",
                       _base_cfg(f"{command}_out", **PINNED_TREES[command][0]))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_CHILD], cwd=work, capture_output=True,
            text=True, timeout=300, env=_child_env(threads))
        assert run.returncode == 0, run.stderr
        results.append((run.stdout, _tree_bytes(work / "covariance_out"),
                        _tree_bytes(work / "sample_out")))
    assert results[0] == results[1]


# Imports spde_lab and its CLI, runs the riemann config of PINNED_TREES (whose
# report carries the truncation tail), its markov config (band screens) and
# its rkhs config (the norm-equivalence chunks), then prints the tail, the
# band widths screened and the heavy modules that were loaded.
_IMPORT_CHILD = """
import json, sys
import spde_lab, spde_lab.cli
for command in ("riemann", "markov", "rkhs"):
    assert spde_lab.cli.main([command, "--config", command + ".yaml", "--quiet"]) == 0
tail = json.load(open("riemann_out/riemann_report.json"))["truncation_tail"]
rows = json.load(open("markov_out/markov_report.json"))["rows"]
heavy = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse",
         "scipy.linalg", "numpy.ma")
print(json.dumps([tail, len(rows), [m for m in heavy if m in sys.modules]]))
"""


def test_cli_run_loads_no_heavy_scipy_subpackage(tmp_path):
    """The truncation tail loads QUADPACK's compiled module alone and the band
    screen LAPACK's, so a CLI run never imports scipy.integrate, scipy.linalg
    or what they would bring along.  Nor does any command import numpy.ma,
    which np.unique loads on its first call (0.9 MB of resident memory)."""
    for command in ("riemann", "markov", "rkhs"):
        _write_cfg(tmp_path / f"{command}.yaml",
                   _base_cfg(f"{command}_out", **PINNED_TREES[command][0]))
    run = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], cwd=tmp_path,
                         capture_output=True, text=True, timeout=300,
                         env=_child_env("1"))
    assert run.returncode == 0, run.stderr
    tail, n_rows, loaded = json.loads(run.stdout)
    assert 0.0 < tail < float("inf")
    assert n_rows == len(PINNED_TREES["markov"][0]["markov"]["band_widths"])
    assert loaded == []

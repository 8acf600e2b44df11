"""Lattice geometry in d >= 2: pinned output bytes and grid-point index checks."""

import hashlib

import numpy as np
import pytest

from spde_lab import (
    NoiseModel,
    SpaceTimeLattice,
    SpectralMeasure,
    assemble_covariance,
    covariance_oracle,
    element_from_h,
    heat_column,
    inner0,
    kernel_eval,
    mc_covariance,
    random_band_limited,
    region_partition,
    representer,
    spatial_bump,
)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_LATTICES = {
    2: SpaceTimeLattice(2, (4.0, 6.0), (8, 4), 1.0, 4),
    3: SpaceTimeLattice(3, (4.0, 6.0, 5.0), (4, 4, 2), 1.0, 3),
}
_INDICES = {2: [(1, 2), (-1, 5), (7, 0)], 3: [(1, 2, 1), (-1, 5, 0), (3, 0, 3)]}

# sha256 of each geometry-driven output on the lattices above (numpy 2.4,
# OpenBLAS, x86-64; another BLAS may round differently)
PINNED = {
    (2, "point_phase"):
        "2da7e447a27c4bde6ccb8866fdb7badd66592e50f73ca506c61178ae93af363b",
    (2, "heat_column"):
        "45240d14e40eb4e9778ce2b727c50a36bdc8490750186522105265ec71190ccd",
    (2, "assemble_covariance"):
        "03a21b55e7358f441dd91e1ad88b30847f833fb512ce0194b1be0d04289ba67f",
    (2, "covariance_oracle"):
        "dac8f9d15e97174702b9a55316fc3a3d0d4d8109585ade958e00818e5564ad3f",
    (2, "mc_covariance"):
        "c46008047d29dbe6cb9d437ffce361c9ea9addcfe774418b23f0a568a65c422e",
    (2, "spatial_bump"):
        "533b4c3a65d39ab7e14d6e659f878b6d178229c13ef1d80a975fdd1d82cdd96f",
    (2, "random_band_limited"):
        "449a02f18278cf75722d216c7078a4ea669d1eb534b1e6d8287db99d49c8e202",
    (2, "xi_squared"):
        "140a12958ce5842fb733dfd823939a77364e0ce1a5fe9624dd5752a3cbdfe1aa",
    (3, "point_phase"):
        "abf2836774c304f8231619a9ff05130fb1c11e06c7b74be9b65b9495cf141118",
    (3, "heat_column"):
        "596606fa4796ec3cd8011b998efaaddd75b9c2c6f073d4c301369389706ef572",
    (3, "assemble_covariance"):
        "babe23661a79c6d8ae9e834fe29461f774d7c20277846379874b4ddcebff114b",
    (3, "covariance_oracle"):
        "ee0a43cd35688ce19bd5d57e5b80c6a43cf13e048d5388128b55c53882f5a963",
    (3, "mc_covariance"):
        "5ba573257d30f1cab9f39b8193245b4454862ac987aac1ea42f559de8d0d0234",
    (3, "spatial_bump"):
        "0f84053dfecc4bc95afa6b10dcd7f6207b15727fc140a716cc42aa2f37413ac5",
    (3, "random_band_limited"):
        "54dd1a09a79a830a6cbf4465f8f0433fe0e0d0e3f49d161b9ca316c89afd7789",
    (3, "xi_squared"):
        "49ba3013111afa753322b10cfa35b7b644c8c9cb02af8c8c3631d58b9ff14b3c",
}


def _outputs(d, name):
    lat = _LATTICES[d]
    measure = SpectralMeasure("bessel", d + 0.5, d)
    idx = _INDICES[d]
    points = [(m + 1, j) for m, j in enumerate(idx)]
    phys = [lat.grid_point(m, j) for m, j in points] + [(0.25, (0.3,) * d)]
    if name == "xi_squared":
        return [lat.xi_squared]
    if name == "point_phase":
        return [lat.point_phase(j) for j in idx]
    if name == "heat_column":
        return [heat_column(lat, p, kind=k).values for p in points
                for k in ("reproducing", "covariance")]
    if name == "assemble_covariance":
        return [assemble_covariance(measure, lat, phys).values]
    if name == "covariance_oracle":
        return [np.array([covariance_oracle(measure, lat, p, q)
                          for p in phys for q in phys])]
    if name == "mc_covariance":
        mc = mc_covariance(NoiseModel(measure, lat), points, seed=5, n_paths=40)
        return [mc["estimate"], mc["stderr"]]
    if name == "spatial_bump":
        return [spatial_bump(lat, (1.0,) * d, (1.5,) * d).values,
                spatial_bump(lat, (3.9, 0.2, 4.8)[:d], 2.0, 0.5).values]
    return [random_band_limited(lat, np.random.default_rng(d)).values]


@pytest.mark.parametrize("d, name", sorted(PINNED), ids=[f"{n}_{d}d" for d, n in sorted(PINNED)])
def test_geometry_outputs_match_pinned_digests(d, name):
    assert _digest(*_outputs(d, name)) == PINNED[d, name]


_LAT2 = _LATTICES[2]
_MEASURE2 = SpectralMeasure("bessel", 2.5, 2)

# The entry points that take physical points (t, (x...)), each called with one
# good point and the point p.
_PHYSICAL = {
    "covariance_oracle": lambda p: covariance_oracle(_MEASURE2, _LAT2, (0.5, (0.0, 0.0)), p),
    "assemble_covariance":
        lambda p: assemble_covariance(_MEASURE2, _LAT2, [(0.5, (0.0, 0.0)), p]),
    "region_partition": lambda p: region_partition(
        _LAT2, [(0.5, (0.0, 0.0)), p], ((0.25, 0.75), (1.0, 3.0), (1.0, 5.0)), 1.0),
}


@pytest.mark.parametrize("coords", [(1,), (1, 2, 3)], ids=["short", "long"])
@pytest.mark.parametrize("entry", [
    lambda j: _LAT2.grid_point(1, j),
    lambda j: _LAT2.point_phase(j),
    lambda j: heat_column(_LAT2, (1, j)),
    lambda j: mc_covariance(NoiseModel(_MEASURE2, _LAT2), [(1, (0, 0)), (2, j)], 0, 4),
    lambda j: _PHYSICAL["covariance_oracle"]((0.5, j)),
    lambda j: _PHYSICAL["assemble_covariance"]((0.5, j)),
    lambda j: spatial_bump(_LAT2, j, 1.0),
    lambda j: _PHYSICAL["region_partition"]((0.5, j)),
], ids=["grid_point", "point_phase", "heat_column", "mc_covariance",
        "covariance_oracle", "assemble_covariance", "spatial_bump", "region_partition"])
def test_point_entry_points_refuse_wrong_coordinate_count(entry, coords):
    """An index or coordinate list of the wrong length is refused, not
    truncated or padded against the axes."""
    with pytest.raises(ValueError, match="for a 2-D lattice"):
        entry(coords)


# Every entry point that takes a grid point (m, (j...)).
_INDEX_ENTRIES = pytest.mark.parametrize("entry", [
    lambda p: _LAT2.grid_point(*p),
    lambda p: heat_column(_LAT2, p),
    lambda p: mc_covariance(NoiseModel(_MEASURE2, _LAT2), [(1, (0, 0)), p], 0, 4),
], ids=["grid_point", "heat_column", "mc_covariance"])


@pytest.mark.parametrize("point", [(2.5, (1, 2)), (2, (1, 1.5)), (2.0, (1, 2))],
                         ids=["time", "space", "integral_float"])
@_INDEX_ENTRIES
def test_point_entry_points_refuse_non_integer_indices(entry, point):
    """A fractional grid index is refused, not truncated to a neighbouring
    grid point."""
    with pytest.raises(ValueError, match=r"has a non-integer index"):
        entry(point)


@pytest.mark.parametrize("m", [-1, _LAT2.n_time + 1], ids=["negative", "after_t_max"])
@_INDEX_ENTRIES
def test_point_entry_points_refuse_time_index_off_the_lattice(entry, m):
    """A time index outside [0, n_time] is refused, not read as a time before
    0 or after t_max."""
    with pytest.raises(ValueError, match=rf"grid point \({m}, \(1, 2\)\) has a time index "
                                         rf"outside \[0, {_LAT2.n_time}\]"):
        entry((m, (1, 2)))


@pytest.mark.parametrize("t", [-0.25, _LAT2.t_max + 0.25, float("nan")],
                         ids=["negative", "after_t_max", "nan"])
@pytest.mark.parametrize("entry", list(_PHYSICAL.values()), ids=list(_PHYSICAL))
def test_physical_point_entry_points_refuse_a_time_off_the_lattice(entry, t):
    """A time outside [0, t_max], or NaN, is refused by the one physical-point
    check."""
    with pytest.raises(ValueError, match=r"has a time outside \[0, 1.0\]"):
        entry((t, (1.0, 2.0)))


@pytest.mark.parametrize("entry", list(_PHYSICAL.values()), ids=list(_PHYSICAL))
def test_physical_point_entry_points_refuse_a_bare_number_coordinate(entry):
    """A point whose coordinates are one number, not a sequence, is refused
    by name."""
    with pytest.raises(ValueError, match=r"point \(0.5, 1.0\) has no coordinate sequence"):
        entry((0.5, 1.0))


def test_point_phase_refuses_non_integer_space_index():
    with pytest.raises(ValueError, match=r"has a non-integer index"):
        _LAT2.point_phase((1, 1.5))


def test_point_entry_points_accept_numpy_integers():
    p, q = (2, (1, 3)), (np.int64(2), (np.int32(1), np.uint8(3)))
    assert _LAT2.grid_point(*q) == _LAT2.grid_point(*p)
    assert heat_column(_LAT2, q).values.tobytes() == heat_column(_LAT2, p).values.tobytes()
    model = NoiseModel(_MEASURE2, _LAT2)
    a, b = (mc_covariance(model, [(1, (0, 0)), r], 0, 4)["estimate"] for r in (p, q))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("entry", [
    lambda m, phi: covariance_oracle(m, _LAT2, (0.5, (0.0, 0.0)), (0.5, (1.0, 2.0))),
    lambda m, phi: assemble_covariance(m, _LAT2, [(0.5, (0.0, 0.0)), (0.5, (1.0, 2.0))]),
    lambda m, phi: element_from_h(representer(phi, _MEASURE2, check=False).h, m),
    lambda m, phi: representer(phi, m, check=False),
    lambda m, phi: inner0(phi, phi, m),
    lambda m, phi: NoiseModel(m, _LAT2),
    lambda m, phi: kernel_eval(m, _LAT2),
], ids=["covariance_oracle", "assemble_covariance", "element_from_h",
        "representer_unchecked", "inner0", "NoiseModel", "kernel_eval"])
def test_entry_points_refuse_a_measure_of_another_dimension(entry):
    phi = random_band_limited(_LAT2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="measure dim 1 != lattice dim 2"):
        entry(SpectralMeasure("bessel", 2.5, 1), phi)


def test_phase_is_the_plane_wave_exponent():
    lat = _LAT2
    x = np.array([[0.5, 1.25], [3.0, -2.0]])
    xi0, xi1 = np.meshgrid(*lat.xi_axes(), indexing="ij")
    np.testing.assert_array_equal(lat.phase(x), [xi0 * a + xi1 * b for a, b in x])
    with pytest.raises(ValueError, match="for a 2-D lattice"):
        lat.phase([0.5, 1.0, 2.0])

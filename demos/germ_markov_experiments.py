"""Numerical experiments on the germ Markov property of the solution field.

A Gaussian field is germ Markov over a region when, conditionally on the
data in an arbitrarily thin band around the region's boundary, inside and
outside become independent.  For this equation the property hinges on
whether the covariance pairing of the noise is a LOCAL (differential)
Dirichlet form: even-order Bessel measures are local, fractional orders are
not.  Two complementary experiments make that dichotomy measurable:

  1. orthogonality -- elements built from bumps with disjoint supports have
     covariance pairing that vanishes under refinement for even orders but
     plateaus at a genuine nonzero continuum value for fractional orders;
  2. screening -- the largest inside/outside conditional correlation given a
     boundary band, computed from the dense covariance matrix, decays
     rapidly with band width for even orders and much more slowly otherwise.

The covariance matrix for experiment 2 is assembled on a spatially refined
quadrature lattice: a matrix built from the observation grid's own truncated
frequency sum describes a band-limited field, and band-limited fields are
never Markov, so the screen would bottom out at a truncation floor common to
all measures.  Refining the quadrature (not the observation points) removes
that floor; the `oracle_refine` knob of the command-line front end does the
same thing.

Run:  python3 demos/germ_markov_experiments.py   (~2 s)
"""

import numpy as np

from spde_lab import (
    Field,
    SpaceTimeLattice,
    SpectralMeasure,
    assemble_covariance,
    band_width_study,
    element_from_h,
    kunsch_decomposition,
    kunsch_orthogonality,
    markov_guarantee,
    radial_cutoff,
    space_time_bump,
)


def bump_pair(lat):
    L = lat.extent[0]
    kw = dict(t_center=0.25, t_width=0.15, width=(0.08 * L,))
    return (space_time_bump(lat, center=(0.3 * L,), **kw),
            space_time_bump(lat, center=(0.7 * L,), amplitude=0.7, **kw))


def main():
    print("=== experiment 1: disjoint-support orthogonality ===")
    print("  normalized |<phi_h, phi_g>_0| for bumps 0.4 L apart\n")
    print("  measure           n=128      n=256      n=512    local form?")
    for alpha in (2.0, 4.0, 1.0):
        m = SpectralMeasure("bessel", alpha, 1)
        vals = []
        for n in (128, 256, 512):
            lat = SpaceTimeLattice(1, (16.0,), (n,), 0.5, n // 8)
            h, g = bump_pair(lat)
            vals.append(kunsch_orthogonality(m, h, g)["normalized_inner"])
        tag = "yes" if markov_guarantee(m) else "no"
        print(f"  bessel({alpha})      " +
              "  ".join(f"{v:9.2e}" for v in vals) + f"    {tag}")
    print("\n  even orders keep shrinking (pure discretization floor); the"
          "\n  fractional order flattens at its genuine continuum value."
          "\n  (bessel(3) would plateau too, but its nonlocal tail is so much"
          "\n  weaker that the plateau sits below this resolution range --"
          "\n  experiment 2 is where that measure shows its colors.)")

    print("\n=== cutoff decomposition of a two-bump element ===")
    lat = SpaceTimeLattice(1, (16.0,), (256,), 0.5, 32)
    h, g = bump_pair(lat)
    combined = Field(lat, h.representation, h.values + g.values)
    chi = radial_cutoff(lat, center=(0.3 * 16.0,), inner_radius=2.0,
                        outer_radius=4.0)
    for alpha in (2.0, 1.0):
        m = SpectralMeasure("bessel", alpha, 1)
        rep = kunsch_decomposition(m, element_from_h(combined, m), chi)
        print(f"  bessel({alpha}): Pythagoras residual "
              f"{rep['residual']:.2e}, cross term {rep['cross_normalized']:.2e}")

    print("\n=== experiment 2: conditional-covariance screening ===")
    L, T, n_cols, n_t, refine = 4.0, 1.0, 16, 32, 8
    obs = SpaceTimeLattice(1, (L,), (n_cols,), T, n_t)
    quad = SpaceTimeLattice(1, (L,), (n_cols * refine,), T, n_t)
    dx = L / n_cols
    points = [(mi * obs.dt, (j * dx,))
              for mi in range(1, n_t + 1) for j in range(n_cols)]
    rect = ((-1.0, 2.0), (1.0, 3.0))  # straddles time: the band is spatial
    widths = [1, 2, 3]
    print(f"  {len(points)} grid points, quadrature refined x{refine}, "
          f"region x in (1, 3), t straddled")
    print("\n  band width     " + "".join(f"{w:>12d}" for w in widths))
    stats = {}
    for alpha in (2.0, 3.0):
        C = assemble_covariance(SpectralMeasure("bessel", alpha, 1),
                                quad, points)
        rows = band_width_study(C, rect, widths, partition_lattice=obs)["rows"]
        stats[alpha] = [r["max_abs_cond_corr"] for r in rows]
        print(f"  bessel({alpha})     " +
              "".join(f"{s:12.2e}" for s in stats[alpha]))
    print(f"\n  width-{widths[-1]} contrast bessel(3)/bessel(2): "
          f"x{stats[3.0][-1] / stats[2.0][-1]:.1f}")
    print("  the even order screens orders of magnitude faster: conditioning"
          "\n  on a thin boundary band almost decouples inside from outside.")


if __name__ == "__main__":
    main()

"""The pipeline commutes with the isometries that the polar mesh keeps.

Every object of the paper is invariant under Isom(H^{2,n}) = O(2, n+1). Two
subgroups map the polar mesh onto itself: O(n+1) acting on the fiber
coordinates, and rotations by a multiple of 2pi/sectors. So loop -> solve ->
geometry -> audits must commute with both, up to rounding. Reflections and
boosts are not mesh symmetries (the quad diagonals and the polar grid break
them), so they are left out.
"""

import numpy as np
import pytest

from pseudoplateau import diagnostics as diag
from pseudoplateau import einstein as ein
from pseudoplateau import plateau as pl


RINGS, SECTORS, RADIUS = 16, 48, 3.0
SAMPLES = 144
SEED = 7
# the largest difference measured is 3.8e-11 (K at n = 2 and 3)
TOL = 1e-9


def generic_loop(n):
    """A loop with no symmetry of its own: no fiber isometry maps it to its
    half-turn, so the sector test below is not a fiber test in disguise.
    It fills every fiber coordinate."""
    th = 2.0 * np.pi * np.arange(SAMPLES) / SAMPLES
    bumps = [0.15 * np.sin(3 * th) + 0.08 * np.cos(2 * th),
             0.12 * np.cos(3 * th) - 0.05 * np.sin(th),
             0.1 * np.sin(2 * th + 0.3)]
    fib = np.column_stack([np.ones_like(th)] + bumps[:n])
    return ein.LipschitzLoop(th, fib / np.linalg.norm(fib, axis=1)[:, None], c1=True)


def pipeline(loop):
    state = pl.plateau_solve(pl.build_state(loop, RINGS, SECTORS, RADIUS), tol=1e-9)
    assert state.converged and state.dt_summary["halvings"] == 0
    reports = {name: entry.run(state, SEED) for name, entry in diag.AUDITS.items()}
    return state, pl.discrete_geometry(state), reports


def audit_values(report):
    """The report's values as one flat {path: float} dict."""
    flat = {}

    def walk(prefix, v):
        if isinstance(v, dict):
            for k, x in v.items():
                walk(f"{prefix}.{k}", x)
        elif isinstance(v, (list, tuple)):
            for k, x in enumerate(v):
                walk(f"{prefix}.{k}", x)
        else:
            flat[prefix] = float(v)

    walk(report.name, report.values)
    return flat


def assert_same_audits(got, want, names):
    for name in names:
        g, w = audit_values(got[name]), audit_values(want[name])
        assert g.keys() == w.keys(), name
        for key in w:
            assert abs(g[key] - w[key]) <= TOL, (key, g[key], w[key])
        assert got[name].passed == want[name].passed, name
        assert got[name].samples == want[name].samples, name


def assert_same_field(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.nanmax(np.abs(got - want)) <= TOL


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["n1", "n2", "n3"])
def case(request):
    loop = generic_loop(request.param)
    return loop, pipeline(loop)


def test_fiber_rotations_commute_with_the_pipeline(case):
    loop, (state, geo, reports) = case
    n = loop.n
    rng = np.random.default_rng(n)
    Q, R = np.linalg.qr(rng.normal(size=(n + 1, n + 1)))
    Q *= np.sign(np.diag(R))   # Haar on O(n+1), reflections included
    turned, turned_geo, turned_reports = pipeline(
        ein.LipschitzLoop(loop.thetas, loop.fibers @ Q.T, c1=True))
    assert turned.iterations == state.iterations
    X, Y = state.positions, turned.positions
    assert np.max(np.abs(Y[:, :2] - X[:, :2])) <= TOL
    assert np.max(np.abs(Y[:, 2:] - X[:, 2:] @ Q.T)) <= TOL
    assert_same_field(turned_geo.K, geo.K)
    assert_same_field(turned_geo.ii_fit, geo.ii_fit)
    # the audits draw vertices by index, and a fiber rotation keeps every
    # vertex where it is, so every value matches
    assert_same_audits(turned_reports, reports, diag.AUDITS)


def test_a_half_turn_of_the_sectors_commutes_with_the_pipeline(case):
    # The half turn is the one sector shift that maps the whole stencil onto
    # itself at 48 sectors: the center's balanced star takes every 8th
    # sector and its tangent frame sectors 0, 12, 24 and 36. The 144 loop
    # samples map onto themselves too.
    loop, (state, geo, reports) = case
    turned, turned_geo, turned_reports = pipeline(
        ein.LipschitzLoop(loop.thetas + np.pi, loop.fibers, c1=True))
    assert turned.iterations == state.iterations
    mesh = state.mesh
    ring, sector = mesh.ring_of(), mesh.sector_of()
    # vertex v of the turned surface is vertex `before[v]` of the first,
    # turned by pi in the (X0, X1) plane
    before = np.where(ring == 0, 0, 1 + (ring - 1) * SECTORS + (sector - SECTORS // 2) % SECTORS)
    want = state.positions[before]
    want[:, :2] *= -1.0
    assert np.max(np.abs(turned.positions - want)) <= TOL
    assert_same_field(turned_geo.K, geo.K[before])
    assert_same_field(turned_geo.ii_fit, geo.ii_fit[before])
    # The other audits draw vertices, or boundary quadruples, by index, and
    # the turn moves every index; only these two read every vertex or ring.
    assert_same_audits(turned_reports, reports, ["rigidity", "asymptotic_hyperbolicity"])

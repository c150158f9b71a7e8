"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion on stdout."""

import json

import numpy as np
import pytest

from pseudoplateau.qcore import BilinearForm, subspace_signature
from pseudoplateau import einstein as ein
from pseudoplateau import crossratio as cr
from pseudoplateau import hspace as hs
from pseudoplateau import plateau as pl
from pseudoplateau import diagnostics as diag

from conftest import make_rigid_arc, make_wobble, orbit_surface_gaps


FORM1 = BilinearForm(1)


def report(criterion: str, passed: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


@pytest.fixture(scope="module")
def wobble_states(solved_wobble_state):
    variants = [
        solved_wobble_state,
        pl.plateau_solve(pl.build_state(make_wobble(amp=0.15, freq=5), 24, 72, 3.0),
                         tol=1e-9, max_iter=2000),
        pl.plateau_solve(pl.build_state(make_wobble(amp=0.35, freq=2), 24, 72, 3.0),
                         tol=1e-9, max_iter=2000),
    ]
    for st in variants:
        assert st.converged
    return variants


@pytest.fixture(scope="module")
def generator_suite(solved_circle, wobble_states, solved_crown_state):
    return [solved_circle, *wobble_states, solved_crown_state]


class TestCriterion1BarbotExactness:
    def test_crown_invariants(self):
        worst_pair = 0.0
        for n in (1, 2, 3):
            form = BilinearForm(n)
            crown = ein.barbot_crown_standard(n)
            z = crown.zreps
            for i in range(4):
                worst_pair = max(worst_pair, abs(form.q(z[i])))
                worst_pair = max(worst_pair, abs(form.inner(z[i], z[(i + 1) % 4])))
            for i in range(2):
                worst_pair = max(worst_pair, abs(form.inner(z[i], z[i + 2]) + 0.25))
            sig = subspace_signature(form, z)
            assert sig == (2, 2, 0)
        x = ein.barbot_crown_standard(1).zreps.sum(axis=0)
        sum_q = abs(FORM1.q(x) + 1.0)
        ok = worst_pair <= 1e-10 and sum_q <= 1e-14
        report("1 Barbot exactness", ok,
               f"max invariant defect {worst_pair:.2e}, |q(sum)+1| = {sum_q:.2e}")


class TestCriterion2BarbotMaximality:
    def test_residual_second_order(self):
        crown = ein.barbot_crown_standard(1)
        vals = {}
        for m in (32, 64):
            st = pl.barbot_state(FORM1, crown, m, 6 * m, 0.9)
            vals[m] = float(np.max(np.linalg.norm(pl.mean_curvature_residual(st), axis=1)))
        ok = vals[32] <= 5e-3 and vals[32] / vals[64] >= 3.0
        report("2 Barbot maximality", ok,
               f"residual {vals[32]:.2e} at m=32, decrease factor {vals[32] / vals[64]:.2f}")


class TestCriterion3RigidityBounds:
    def test_generator_suite(self, generator_suite):
        worst_k = -np.inf
        worst_ii = -np.inf
        for st in generator_suite:
            geo = pl.discrete_geometry(st)
            inter = st.mesh.interior_mask(2)
            worst_k = max(worst_k, float(np.nanmax(geo.K[inter])))
            worst_ii = max(worst_ii, float(np.nanmax(geo.ii_fit[inter])))
        ok = worst_k <= 5e-2 and worst_ii <= 2.1
        report("3 rigidity bounds (suite)", ok,
               f"max K {worst_k:.3f}, max |II|^2 {worst_ii:.3f}")

    def test_barbot_extremes(self, barbot_grid_state):
        geo = pl.discrete_geometry(barbot_grid_state)
        inter = barbot_grid_state.mesh.interior_mask(2)
        dk = float(np.nanmax(np.abs(geo.K[inter])))
        dii = float(np.nanmax(np.abs(geo.ii_fit[inter] - 2.0)))
        ok = dk <= 3e-2 and dii <= 0.1
        report("3 rigidity bounds (flat orbit)", ok,
               f"|K| <= {dk:.3f}, |II^2 - 2| <= {dii:.3f}")


class TestCriterion4GradientBounds:
    def test_sampled_bounds(self, generator_suite):
        lo, hi = np.inf, -np.inf
        total = 0
        for st in generator_suite:
            rep = diag.gradient_audit(st, seed=41)
            assert rep.samples >= 500
            total += rep.samples
            lo = min(lo, rep.values["min_grad_sq"])
            hi = max(hi, rep.values["max_grad_sq"])
        ok = lo >= 1.0 - 1e-2 and hi <= 2.05
        report("4 gradient bounds (sampled)", ok,
               f"range [{lo:.4f}, {hi:.4f}] over {total} samples")

    def test_barbot_attains_two_analytically(self):
        crown = ein.barbot_crown_standard(1)
        h = hs.horofunction(FORM1, crown.zreps[0])
        worst = 0.0
        for s in np.linspace(-1.5, 1.5, 7):
            for t in np.linspace(-1.5, 1.5, 7):
                x = hs.barbot_surface_point(crown, s, t)
                frame = hs.barbot_tangent_frame(crown, s, t)
                worst = max(worst, abs(hs.gradient_norm_sq(FORM1, h, x, frame) - 2.0))
        ok = worst <= 1e-6
        report("4 gradient bounds (flat orbit)", ok, f"|grad^2 - 2| <= {worst:.2e}")


class TestCriterion5SpatialDistance:
    def test_ratio_window(self, generator_suite):
        lo, hi = np.inf, -np.inf
        for st in generator_suite:
            rep = diag.distance_ratio_audit(st, seed=51, mesh_slack=0.1)
            lo = min(lo, rep.values["min_ratio"])
            hi = max(hi, rep.values["max_ratio"])
        ok = lo >= 1.0 / 1.1 and hi <= np.sqrt(2.0) * 1.1
        report("5 spatial distance (solved)", ok, f"ratios in [{lo:.4f}, {hi:.4f}]")

    def test_barbot_diagonal(self):
        crown = ein.barbot_crown_standard(1)
        x0 = hs.barbot_surface_point(crown, 0.0, 0.0)
        xt = hs.barbot_surface_point(crown, 20.0, 0.0)
        ratio = hs.spatial_distance(FORM1, x0, xt) / (20.0 / np.sqrt(2.0))
        gap = abs(ratio - np.sqrt(2.0)) / np.sqrt(2.0)
        ok = gap <= 0.05
        report("5 spatial distance (flat orbit diagonal)", ok,
               f"ratio {ratio:.4f} vs sqrt(2), off by {100 * gap:.2f}%")


class TestCriterion6PlateauUniqueness:
    def test_circle_solves_to_disk(self, solved_circle):
        disp = float(np.max(np.abs(solved_circle.positions[:, 3])))
        ok = solved_circle.converged and disp < 1e-8
        report("6 uniqueness proxy (circle)", ok, f"max fiber displacement {disp:.2e}")

    def test_crown_solves_to_orbit_surface(self, solved_crown_state):
        crown = ein.barbot_crown_standard(1)
        worst = float(np.max(orbit_surface_gaps(crown, solved_crown_state.positions)))
        ok = solved_crown_state.converged and worst <= 1e-2
        report("6 uniqueness proxy (crown)", ok,
               f"vertexwise distance to the analytic surface <= {worst:.2e}")


class TestCriterion7CrossRatioIdentities:
    def test_chart_identity_bulk(self):
        # the configurations are drawn one at a time from one stream, moved
        # as one stack, and each gets its own chart; b of all of them is
        # evaluated at once through the kernels of `qs_certify`
        rng = np.random.default_rng(77)
        worst = 0.0
        count = 0
        configs_per_n = {1: 4000, 2: 3000, 3: 3000}
        for n, total in configs_per_n.items():
            form = BilinearForm(n)
            from pseudoplateau.qcore import random_isometry

            angles, moves = [], []
            while len(angles) < total:
                t = np.sort(rng.uniform(0, 2 * np.pi, size=4))
                if np.min(np.diff(t)) < 0.05 or (2 * np.pi - t[-1] + t[0]) < 0.05:
                    continue
                angles.append(t)
                moves.append(random_isometry(form, rng).matrix.T)
            # the rows of each quadruple are a, x, b, y
            quads = ein.boundary_points(form, ein.circle_points(form, angles) @ np.array(moves))
            coords = []
            for X in quads:
                chart = ein.minkowski_chart(form, X[0], X[2])
                coords.append(ein.minkowski_chart_inverse(form, chart, X[[1, 3, 2]]))
            ux, uy, ub = np.moveaxis(np.array(coords), 1, 0)
            chart_val = ein.q1n(ub - uy) / ein.q1n(ub - ux)
            val = cr.cross_ratio_b(form, quads)
            worst = max(worst, float(np.max(np.abs(chart_val - val) / (1.0 + np.abs(val)))))
            count += len(quads)
        ok = count >= 10000 and worst <= 1e-10
        report("7 cross-ratio identities (chart)", ok,
               f"{count} configurations, worst relative gap {worst:.2e}")

    def test_circle_map_square_identity(self):
        dom = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        bmap = cr.circle_map(FORM1, dom)
        quads = np.array(cr._quadruple_indices(40, 2000))
        r = cr.cross_ratio_angles(*bmap.domain[quads].T)
        b = cr.cross_ratio_b(FORM1, bmap.reps[quads])
        worst = float(np.max(np.abs(b - r * r) / (1.0 + r * r)))
        angles = [cr.value_to_angle(v) for v in (0.0, 1.0, float("inf"), 2.0)]
        worked_r = cr.cross_ratio_real(0.0, 1.0, float("inf"), 2.0)
        worked_b = cr.cross_ratio_b(FORM1, ein.circle_points(FORM1, angles))
        ok = worst <= 1e-12 and abs(worked_r - 0.5) < 1e-14 and abs(worked_b - 0.25) < 1e-12
        report("7 cross-ratio identities (circle map)", ok,
               f"worst |b - r^2| = {worst:.2e}; worked quadruple r = {worked_r}, b = {worked_b:.6f}")


class TestCriterion8Contraction:
    def test_nested_diamond_sweep(self):
        rng = np.random.default_rng(88)
        B = 3.0
        bound = (B - 1.0) / (B + 1.0)
        worst_ratio = 0.0
        chord_gap = 0.0
        count = 0
        from pseudoplateau.qcore import random_isometry

        while count < 1000:
            base = np.sort(rng.uniform(0, 2 * np.pi, size=3))
            if np.min(np.diff(base)) < 0.4 or (2 * np.pi - base[-1] + base[0]) < 0.4:
                continue
            ta, tb, tc = base
            lo = tb + 0.25 * (tc - tb)
            hi = tb + 0.75 * (tc - tb)
            tx, ty = np.sort(rng.uniform(lo, hi, size=2))
            if ty - tx < 0.05 * (tc - tb):
                continue
            g = random_isometry(FORM1, rng, scale=0.3)
            # the rows are a, b, c, x, y
            X = ein.boundary_points(FORM1, ein.circle_points(FORM1, [ta, tb, tc, tx, ty])
                                    @ g.matrix.T)
            try:
                bx, by = cr.cross_ratio_b(FORM1, X[[[0, 1, 3, 2], [0, 1, 4, 2]]])
                if not (1.0 / B < min(bx, by) and max(bx, by) < B):
                    continue
                repc = cr.contraction_check(FORM1, X[:3], X[[0, 3, 4]], B, per_axis=4)
            except (cr.GeometryError, ein.GeometryError):
                continue
            worst_ratio = max(worst_ratio, repc.max_ratio)
            chord_gap = max(chord_gap, abs(repc.chord_ratio_measured - repc.chord_ratio_formula))
            count += 1
        ok = worst_ratio <= bound + 1e-6 and chord_gap <= 1e-8
        report("8 contraction", ok,
               f"{count} configurations, worst ratio {worst_ratio:.6f} <= {bound:.6f}, "
               f"chord formula gap {chord_gap:.2e}")


class TestCriterion9BoundaryExtension:
    def test_circle_flattening_is_circle_map(self, solved_circle):
        bmap, cert = diag.boundary_extension(solved_circle, seed=9)
        ok = cr.circle_map_test(FORM1, bmap, tol=1e-6) and cert.B <= 4.0 + 1e-6
        report("9 boundary extension (circle)", ok, f"B = {cert.B:.4f}")

    def test_wobble_certificate_stability(self):
        certs = {}
        for m in (16, 32):
            st = pl.plateau_solve(pl.build_state(make_wobble(), m, 3 * m, 3.0),
                                  tol=1e-9, max_iter=2000)
            assert st.converged
            _, cert = diag.boundary_extension(st, seed=9)
            certs[m] = cert.B
        drift = abs(certs[32] - certs[16]) / certs[16]
        ok = np.isfinite(certs[16]) and np.isfinite(certs[32]) and drift <= 0.2
        report("9 boundary extension (wobble)", ok,
               f"B = {certs[16]:.3f} -> {certs[32]:.3f} under refinement ({100 * drift:.1f}%)")


class TestCriterion10BarbotDegeneration:
    def test_rigid_arc_reaches_crown(self):
        loop = make_rigid_arc()
        crown = ein.crown_seeded_from_arc(FORM1, loop)
        rep = diag.barbot_degeneration(loop, crown, iters=60)
        h = np.array(rep["hausdorff"])
        hit = int(np.argmax(h < 1e-3)) if np.any(h < 1e-3) else -1
        ok = 0 <= hit <= 60
        report("10 degeneration (rigid arc)", ok,
               f"distance < 1e-3 from iteration {hit}, final {rep['final']:.2e}")

    def test_crown_is_fixed_point(self):
        crown = ein.barbot_crown_standard(1)
        loop = ein.crown_loop(crown, samples_per_edge=16)
        rep = diag.barbot_degeneration(loop, crown, iters=60)
        worst = max(rep["hausdorff"])
        ok = worst <= 1e-12
        report("10 degeneration (crown fixed)", ok, f"max distance {worst:.2e}")


class TestCriterion11AsymptoticHyperbolicity:
    def test_wobble_at_radius_four(self):
        st = pl.plateau_solve(pl.build_state(make_wobble(), 24, 144, 4.0),
                              tol=1e-8, max_iter=2000)
        assert st.converged
        rep = diag.asymptotic_hyperbolicity_audit(st)
        ok = rep.passed and abs(rep.values["outer_ring_mean_K"] + 1.0) <= 0.1
        report("11 asymptotic hyperbolicity (wobble)", ok,
               f"outer audited ring mean K = {rep.values['outer_ring_mean_K']:.4f}")

    def test_crown_negative_control(self, solved_crown_state):
        rep = diag.asymptotic_hyperbolicity_audit(solved_crown_state)
        ok = not rep.passed
        report("11 asymptotic hyperbolicity (crown control)", ok,
               f"outer ring mean K = {rep.values['outer_ring_mean_K']:.4f}, audit fails as required")


class TestCriterion12Determinism:
    def test_byte_identical_runs(self, tmp_path, run_cli_process):
        # each command in its own process, as a user runs them
        def run(*args):
            res = run_cli_process(*args, cwd=tmp_path)
            assert res.returncode in (0, 2), res.stderr
            return res

        run("loop-gen", "--kind", "c1_wobble", "--samples", "96", "--amplitude", "0.2",
            "--frequency", "3", "--out", "w.loop")
        for out in ("r1", "r2"):
            run("solve", "--loop", "w.loop", "--rings", "12", "--sectors", "36",
                "--radius", "2.5", "--seed", "5", "--out", out)
            run("audit", "--state", f"{out}/state.txt", "--loop", "w.loop",
                "--audits", "rigidity,gradient,gromov", "--seed", "5", "--out", out)
        same = True
        for name in ("state.txt", "solve_report.json", "audit_report.json",
                     "k_profile.csv", "gradient_hist.csv", "distance_scatter.csv"):
            same = same and (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        report("12 determinism", same, "identical config+seed reproduce byte-identical reports")

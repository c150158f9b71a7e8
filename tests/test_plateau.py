import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

from pseudoplateau.qcore import BilinearForm
from pseudoplateau import einstein as ein
from pseudoplateau import plateau as pl

from conftest import make_rigid_arc, orbit_surface_gaps
from geometry_reference import (
    balanced_star, barbot_positions_reference, geodesic_disk_state, reference_cotan_matrix,
    reference_faces, reference_geometry, reference_polar_grid,
)


FORM1 = BilinearForm(1)


def wobble_loop(n=1, k=128, amp=0.25, freq=3):
    th = np.linspace(0, 2 * np.pi, k, endpoint=False)
    if n == 1:
        phi = amp * np.sin(freq * th)
        fib = np.column_stack([np.cos(phi), np.sin(phi)])
    else:
        a = amp * np.cos(freq * th)
        b = amp * np.sin(freq * th)
        base = np.zeros((k, n + 1))
        base[:, 0] = np.sqrt(1 - a**2 - b**2)
        base[:, 1] = a
        base[:, 2] = b
        fib = base
    return ein.LipschitzLoop(th, fib, c1=True)


@pytest.fixture(scope="module")
def solved_wobble():
    st = pl.build_state(wobble_loop(), 24, 72, 3.0)
    return pl.plateau_solve(st, tol=1e-8, max_iter=2000)


@pytest.fixture(scope="module")
def barbot_grid():
    crown = ein.barbot_crown_standard(1)
    return pl.barbot_state(FORM1, crown, 32, 96, 1.2)


class TestMesh:
    def test_counts(self):
        mesh = pl.DiskMesh(8, 24, 2.0)
        assert mesh.vertex_count == 1 + 8 * 24
        assert len(mesh.faces) == 24 * (2 * 8 - 1)

    @pytest.mark.parametrize("rings,sectors", [(2, 3), (5, 9), (24, 72), (96, 288)])
    def test_faces_and_polar_grid_match_the_loop_reference(self, rings, sectors):
        mesh = pl.DiskMesh(rings, sectors, 1.7)
        want = reference_faces(mesh)
        assert mesh.faces.dtype == want.dtype and np.array_equal(mesh.faces, want)
        for got, ref in zip(mesh.polar_grid(), reference_polar_grid(mesh)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_degenerate_radius(self, radius):
        with pytest.raises(pl.GeometryError):
            pl.DiskMesh(8, 24, radius)
        with pytest.raises(pl.GeometryError):
            pl.build_state(wobble_loop(k=64), 8, 24, radius)

    @pytest.mark.parametrize("rings,sectors", [(8, 24), (5, 9), (24, 72)])
    def test_stencil_table_holds_the_balanced_stars(self, rings, sectors):
        mesh = pl.DiskMesh(rings, sectors, 1.0)
        table = mesh.stencil
        for v in range(mesh.vertex_count):
            i, j = int(table.ring[v]), int(table.sector[v])
            assert mesh.vertex(i, j) == v
            star = list(table.star[v][table.mask[v]])
            assert star == (balanced_star(mesh, i, j) if i < rings else [])
            assert list(table.star[v][~table.mask[v]]) == [v] * (pl.STAR_WIDTH - len(star))
            cyc = [table.nxt[v][k] for k in range(len(star))]
            assert cyc == [(k + 1) % len(star) for k in range(len(star))]

    @pytest.mark.parametrize("rings,sectors", [(2, 3), (5, 9), (24, 72)])
    def test_tangent_diffs_hold_the_frame_differences(self, rings, sectors):
        mesh = pl.DiskMesh(rings, sectors, 1.0)
        s = sectors
        want = [[mesh.vertex(1, 0), mesh.vertex(1, s // 2),
                 mesh.vertex(1, s // 4), mesh.vertex(1, (3 * s) // 4)]]
        for i in range(1, rings + 1):
            for j in range(s):
                # radial: one-sided at the rim, from the center on ring 1
                want.append([mesh.vertex(min(i + 1, rings), j), mesh.vertex(i - 1, j),
                             mesh.vertex(i, j + 1), mesh.vertex(i, j - 1)])
        assert np.array_equal(mesh.tangent_diffs.T, np.array(want))

    def test_every_interior_vertex_has_full_fan(self):
        mesh = pl.DiskMesh(6, 18, 2.0)
        # each interior vertex's star closes up: sum of incident face angles
        # can only close if the faces form a disk around it; test via edge
        # counts: every interior edge borders exactly 2 faces
        from collections import Counter
        edges = Counter()
        for f in mesh.faces:
            for a in range(3):
                e = tuple(sorted((int(f[a]), int(f[(a + 1) % 3]))))
                edges[e] += 1
        boundary = mesh.boundary_mask()
        for (u, v), cnt in edges.items():
            if boundary[u] and boundary[v]:
                assert cnt in (1, 2)
            else:
                assert cnt == 2

    def test_orientation_consistency(self):
        mesh = pl.DiskMesh(6, 18, 2.0)
        # consistent orientation: each interior edge appears once per direction
        seen = set()
        for f in mesh.faces:
            for a in range(3):
                e = (int(f[a]), int(f[(a + 1) % 3]))
                assert e not in seen
                seen.add(e)


class TestBuildState:
    def test_circle_loop_gives_exact_disk(self):
        th = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        loop = ein.LipschitzLoop(th, np.tile([1.0, 0.0], (48, 1)))
        st = pl.build_state(loop, 8, 24, 2.0)
        assert np.max(np.abs(st.positions[:, 3])) < 1e-12
        qx = FORM1.inner_rows(st.positions, st.positions)
        assert np.max(np.abs(qx + 1.0)) < 1e-12

    def test_crown_loop_builds_spacelike(self):
        crown = ein.barbot_crown_standard(1)
        loop = ein.crown_loop(crown, samples_per_edge=24)
        st = pl.build_state(loop, 16, 48, 3.0)
        ok, _ = pl.faces_spacelike(FORM1, st.positions, st.mesh.faces)
        assert ok

    def test_too_few_rings_rejected(self):
        th = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        loop = ein.LipschitzLoop(th, np.tile([1.0, 0.0], (48, 1)))
        with pytest.raises(pl.GeometryError):
            pl.build_state(loop, 2, 24, 2.0)

    def test_vertex_bound_checked_before_any_allocation(self, monkeypatch):
        th = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        loop = ein.LipschitzLoop(th, np.tile([1.0, 0.0], (48, 1)))
        # the bound is checked before the loop is even classified
        monkeypatch.setattr(pl, "loop_classify", lambda loop: pytest.fail("classified"))
        with pytest.raises(pl.GeometryError, match="vertices"):
            pl.build_state(loop, 300, 1000, 2.0)
        assert 1 + 300 * 1000 > pl.MAX_VERTICES

    def test_invalid_loop_rejected(self):
        th = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        fib = np.column_stack([np.cos(th), np.sin(th)])
        loop = ein.LipschitzLoop(th, fib)
        with pytest.raises(ein.InvalidLoopError):
            pl.build_state(loop, 8, 24, 2.0)

    def test_photon_arc_rejected_at_the_rim(self):
        # Lipschitz constant 1 >= tanh 3: 18 of 72 rim edges are timelike
        with pytest.raises(ein.InvalidLoopError, match=r"18 of 72 rim edges .* tanh R"):
            pl.build_state(make_rigid_arc(k=128), 24, 72, 3.0)


class TestBarbotState:
    @pytest.mark.parametrize("m,s", [(32, 96), (8, 24)])
    @pytest.mark.parametrize("kind", ["standard", "seeded"])
    def test_lock_step_positions_equal_the_per_vertex_reference(self, kind, m, s):
        crown = (ein.barbot_crown_standard(1) if kind == "standard"
                 else ein.crown_seeded_from_arc(FORM1, make_rigid_arc(k=48)))
        st = pl.barbot_state(FORM1, crown, m, s, 1.2)
        assert np.array_equal(st.positions, barbot_positions_reference(crown, m, s, 1.2))

    @pytest.mark.parametrize("fill,message", [(0.0, "singular"), (np.nan, "did not converge")])
    def test_newton_failure_raises(self, fill, message):
        crown = ein.BarbotCrown(np.full((4, 4), fill))
        with pytest.raises(pl.SolverError, match=message):
            pl.barbot_state(FORM1, crown, 8, 24, 1.0)


class TestResidual:
    def test_geodesic_disk_residual_vanishes(self):
        st = geodesic_disk_state(FORM1, 16, 48, 2.0)
        rho = pl.mean_curvature_residual(st)
        assert np.max(np.linalg.norm(rho, axis=1)) < 1e-3

    def test_barbot_grid_residual_small_and_second_order(self):
        crown = ein.barbot_crown_standard(1)
        vals = {}
        for m in (32, 64):
            st = pl.barbot_state(FORM1, crown, m, 6 * m, 0.9)
            rho = pl.mean_curvature_residual(st)
            vals[m] = np.max(np.linalg.norm(rho, axis=1))
        assert vals[32] <= 5e-3
        assert vals[32] / vals[64] >= 3.0

    def test_normal_perturbation_detected(self):
        st = geodesic_disk_state(FORM1, 8, 24, 2.0)
        X = st.positions.copy()
        v = st.mesh.vertex(4, 0)
        X[v] = X[v] + 0.1 * np.array([0.0, 0.0, 0.0, 1.0])
        X[v] = X[v] / np.sqrt(-FORM1.q(X[v]))
        st2 = pl.SurfaceState(mesh=st.mesh, positions=X, form=FORM1)
        rho = pl.mean_curvature_residual(st2)
        assert np.linalg.norm(rho[v]) > 1e-2


class TestCotanAssembly:
    @pytest.mark.parametrize("m, s", [(2, 3), (8, 24), (24, 72), (96, 288)])
    def test_matches_coo_assembly_bitwise(self, m, s):
        # build_state needs eight rings, so the 2 x 3 start is the sampled
        # orbit surface, at a radius small enough for spacelike faces
        if m == 2:
            start = pl.barbot_state(FORM1, ein.barbot_crown_standard(1), m, s, 0.3)
        else:
            start = pl.build_state(wobble_loop(), m, s, 2.0 if m == 8 else 3.0)
        solved = pl.plateau_solve(start, tol=1e-6, max_iter=2000)
        assert solved.converged and solved.iterations > 0
        for st in (start, solved):
            grams = pl.face_grams(st.form, st.positions, st.mesh.faces)
            W, deg, omega = pl._cotan_matrix(grams, st.mesh)
            W0, deg0, omega0 = reference_cotan_matrix(grams, st.mesh)
            for got, want in [(W.data, W0.data), (W.indices, W0.indices),
                              (W.indptr, W0.indptr), (deg, deg0), (omega, omega0)]:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSolve:
    def test_circle_loop_fixed_point(self):
        st = geodesic_disk_state(FORM1, 16, 48, 2.0)
        solved = pl.plateau_solve(st, tol=1e-8, max_iter=100)
        assert solved.converged
        # fiber displacement off the geodesic plane stays at rounding level
        assert np.max(np.abs(solved.positions[:, 3])) < 1e-8

    def test_zero_iteration_budget_returns_failure_flag(self):
        st = pl.build_state(wobble_loop(), 8, 24, 2.0)
        out = pl.plateau_solve(st, tol=1e-10, max_iter=0)
        assert not out.converged
        assert out.iterations == 0

    def test_wobble_converges(self, solved_wobble):
        assert solved_wobble.converged
        assert solved_wobble.final_residual < 1e-8

    def test_crown_converges_to_orbit_surface(self, solved_crown_state):
        # the 16x48 crown solve at R = 1.2, tol 1e-8, shared with criterion 6
        assert solved_crown_state.converged
        crown = ein.barbot_crown_standard(1)
        assert np.max(orbit_surface_gaps(crown, solved_crown_state.positions)) < 1e-2

    def test_returned_residual_is_the_true_residual(self, solved_wobble):
        # the steps reuse a factor of the operator at older positions; the
        # residual must still be that of the returned positions
        rho = pl.mean_curvature_residual(solved_wobble)
        assert np.max(np.linalg.norm(rho, axis=1)) == solved_wobble.final_residual
        assert solved_wobble.final_residual < 1e-8

    @staticmethod
    def _count_factorisations(monkeypatch):
        """Count splu calls and record the dt of every flow step: the dt that
        `_flow_operator` was given for the factor the step solves against."""
        calls, dts, factor_dt = [], [], {}
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        operator, step = pl._flow_operator, pl._flow_step

        def recording_operator(assembly, idx, dt):
            lu = operator(assembly, idx, dt)
            factor_dt[id(lu)] = dt
            return lu

        monkeypatch.setattr(pl, "_flow_operator", recording_operator)
        monkeypatch.setattr(pl, "_flow_step",
                            lambda *a: dts.append(factor_dt[id(a[4])]) or step(*a))
        return calls, dts

    def test_factors_once_per_step_size(self, monkeypatch):
        calls, dts = self._count_factorisations(monkeypatch)
        out = pl.plateau_solve(pl.build_state(wobble_loop(), 16, 48, 3.0), tol=1e-9)
        assert out.converged and out.dt_summary["halvings"] == 0
        assert set(dts) == {pl.INITIAL_DT}
        assert len(calls) == out.dt_summary["factorisations"] == 1

    def test_refactors_when_the_step_size_changes(self, monkeypatch):
        calls, dts = self._count_factorisations(monkeypatch)
        # reject the first four trial steps: dt halves four times and never
        # grows back
        residual, evaluations = pl._residual, []

        def reject_first_trials(*args):
            evaluations.append(1)
            if 2 <= len(evaluations) <= 5:
                raise pl.FaceError("rejected")
            return residual(*args)

        monkeypatch.setattr(pl, "_residual", reject_first_trials)
        # tol 1e-11 takes more than 20 accepted steps at dt = INITIAL_DT / 16,
        # so a regrowth of dt would show in the recorded steps
        out = pl.plateau_solve(pl.build_state(wobble_loop(), 16, 48, 3.0), tol=1e-11)
        assert out.converged and out.dt_summary["halvings"] == 4
        assert dts[:4] == [pl.INITIAL_DT / 2**k for k in range(4)]
        assert set(dts[4:]) == {pl.INITIAL_DT / 16}
        assert out.dt_summary["final"] == pl.INITIAL_DT / 16 and len(dts[4:]) > 20
        assert len(calls) == out.dt_summary["factorisations"] == 1 + out.dt_summary["halvings"]

    @pytest.mark.parametrize("loop, ceiling", [
        (wobble_loop(k=144), 8),
        (ein.crown_loop(ein.barbot_crown_standard(1), samples_per_edge=36), 16),
    ], ids=["wobble", "crown"])
    def test_mixed_steps_converge_within_the_ceiling(self, loop, ceiling):
        # the plain flow takes 26 (wobble) and 16 (crown) steps at 24x72
        out = pl.plateau_solve(pl.build_state(loop, 24, 72, 3.0), tol=1e-9)
        assert out.converged and out.iterations <= ceiling
        assert out.dt_summary["factorisations"] == 1
        assert out.dt_summary["halvings"] == 0

    def test_rejected_mixed_step_halves_dt_and_takes_the_plain_step(self, monkeypatch):
        # residual evaluations: the start, the first (plain) step, the first
        # mixed step, which is rejected, then the plain step that follows
        calls, dts = self._count_factorisations(monkeypatch)
        residual, step = pl._residual, pl._flow_step
        evaluated, flowed = [], []

        def reject_first_mixed(form, X, mesh, grams):
            evaluated.append((X, len(flowed)))
            if len(evaluated) == 3:
                raise pl.FaceError("rejected")
            return residual(form, X, mesh, grams)

        monkeypatch.setattr(pl, "_residual", reject_first_mixed)
        monkeypatch.setattr(pl, "_flow_step",
                            lambda *a: flowed.append((a[0], step(*a))) or flowed[-1][1])
        out = pl.plateau_solve(pl.build_state(wobble_loop(), 16, 48, 3.0), tol=1e-9)
        assert out.converged
        assert out.dt_summary["halvings"] == 1
        assert len(calls) == out.dt_summary["factorisations"] == 2
        assert dts[:3] == [pl.INITIAL_DT, pl.INITIAL_DT, pl.INITIAL_DT / 2]
        # the history is cleared: the next step is the unmixed plain step,
        # a new solve from the positions the mixed step was taken from
        X, flows = evaluated[3]
        assert flows == 3
        assert np.array_equal(flowed[2][0], flowed[1][0])
        assert np.array_equal(X, pl._onto_quadric(out.form, flowed[2][1]))

    def test_solve_does_not_depend_on_the_blas_thread_count(self, tmp_path, python_env):
        # np.vdot on the 48x144 history vectors sums in an order that depends
        # on the BLAS thread count; the solved state must not
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from pseudoplateau import einstein as ein, plateau as pl\n"
            "th = np.linspace(0, 2 * np.pi, 144, endpoint=False)\n"
            "phi = 0.25 * np.sin(3 * th)\n"
            "loop = ein.LipschitzLoop(th, np.column_stack([np.cos(phi), np.sin(phi)]), c1=True)\n"
            "out = pl.plateau_solve(pl.build_state(loop, 48, 144, 3.0), tol=1e-9)\n"
            "assert out.converged\n"
            "print(hashlib.sha256(pl.state_dumps(out).encode()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(python_env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                                 capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]

    def test_threefold_wobble_solves_to_threefold_surface(self):
        # f(t + 2pi/3) = f(t) on 144 samples: the rotation by a third of a
        # turn maps the loop, the mesh and so the solved surface to itself
        loop = wobble_loop(k=144)
        out = pl.plateau_solve(pl.build_state(loop, 24, 72, 3.0), tol=1e-9)
        assert out.converged
        X = out.positions
        c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
        rotated = X.copy()
        rotated[:, 0] = c * X[:, 0] - s * X[:, 1]
        rotated[:, 1] = s * X[:, 0] + c * X[:, 1]
        grid = 1 + np.arange(24 * 72).reshape(24, 72)
        assert np.max(np.abs(X[np.roll(grid, -24, axis=1)] - rotated[grid])) <= 1e-8
        assert np.max(np.abs(X[0] - rotated[0])) <= 1e-8


class TestDiscreteGeometry:
    def test_disk_curvature_and_flat_ii(self):
        st = geodesic_disk_state(FORM1, 32, 128, 3.0)
        geo = pl.discrete_geometry(st)
        inter = st.mesh.interior_mask(2)
        assert np.nanmax(np.abs(geo.K[inter] + 1.0)) < 2e-2
        assert np.nanmax(np.abs(geo.ii_fit[inter])) < 4e-2

    def test_barbot_flat_and_ii_two(self, barbot_grid):
        geo = pl.discrete_geometry(barbot_grid)
        inter = barbot_grid.mesh.interior_mask(2)
        assert np.nanmax(np.abs(geo.K[inter])) < 3e-2
        assert np.nanmax(np.abs(geo.ii_fit[inter] - 2.0)) < 1e-1

    def test_solved_wobble_negative_curvature(self, solved_wobble):
        geo = pl.discrete_geometry(solved_wobble)
        inter = solved_wobble.mesh.interior_mask(2)
        assert np.nanmax(geo.K[inter]) < 0.0
        assert np.nanmin(geo.K[inter]) > -1.0 - 3e-2

    def test_gauss_consistency(self, solved_wobble):
        geo = pl.discrete_geometry(solved_wobble)
        inter = solved_wobble.mesh.interior_mask(2)
        gap = np.abs(geo.ii_fit[inter] - geo.ii_gauss[inter])
        assert np.nanmax(gap) <= 0.15


class TestBatchedGeometry:
    @pytest.mark.parametrize("name", ["solved_wobble", "barbot_grid"])
    def test_matches_per_vertex_reference(self, name, request):
        st = request.getfixturevalue(name)
        geo = pl.discrete_geometry(st)
        for field, want in reference_geometry(st).items():
            got = getattr(geo, field)
            assert np.array_equal(np.isnan(got), np.isnan(want)), field
            ok = ~np.isnan(want)
            assert np.max(np.abs(got[ok] - want[ok])) <= 1e-11, field

    def test_computed_once_per_state(self, monkeypatch):
        crown = ein.barbot_crown_standard(1)
        st = pl.barbot_state(FORM1, crown, 8, 24, 1.0)
        calls = []
        kernel = pl._geometry_pass
        monkeypatch.setattr(pl, "_geometry_pass", lambda s: calls.append(1) or kernel(s))
        geo = pl.discrete_geometry(st)
        assert pl.discrete_geometry(st) is geo
        assert len(calls) == 1
        # a moved vertex invalidates the kept result, in place or not
        st.positions[5] *= 1.0 + 1e-9
        moved = pl.discrete_geometry(st)
        assert moved is not geo and len(calls) == 2
        st.positions = st.positions.copy()
        assert pl.discrete_geometry(st) is moved and len(calls) == 2
        assert pl.discrete_geometry(st.copy()) is not moved and len(calls) == 3


class TestSecondForm:
    def test_fit_and_gauss_estimates_tighten_under_refinement(self):
        gauss_gap = {}
        for m in (16, 32):
            st = pl.plateau_solve(pl.build_state(wobble_loop(), m, 3 * m, 3.0),
                                  tol=1e-8, max_iter=2000)
            geo = pl.discrete_geometry(st)
            inter = st.mesh.interior_mask(2)
            gauss_gap[m] = np.nanmax(np.abs(geo.ii_fit[inter] - geo.ii_gauss[inter]))
        # the two second-form estimates agree and tighten under refinement
        assert gauss_gap[32] <= 0.15
        assert gauss_gap[32] < gauss_gap[16]


class TestStateIO:
    def test_round_trip(self, tmp_path, solved_wobble):
        path = tmp_path / "state.txt"
        pl.state_save(solved_wobble, path)
        back = pl.state_load(path)
        assert back.mesh.rings == solved_wobble.mesh.rings
        assert back.converged == solved_wobble.converged
        assert np.allclose(back.positions, solved_wobble.positions, atol=1e-14)

    def test_rejects_off_quadric(self, tmp_path):
        st = geodesic_disk_state(FORM1, 8, 24, 1.0)
        text = pl.state_dumps(st)
        lines = text.splitlines()
        parts = lines[5].split()
        parts[2] = "2.5"
        lines[5] = " ".join(parts)
        with pytest.raises(pl.GeometryError):
            pl.state_loads("\n".join(lines))

    @pytest.mark.parametrize("line,old,new", [
        (0, "rings=8", "rings=x"),
        (0, "rings=8", "rings=80000"),
        (0, "n=1", "n=3"),
        (0, "converged=0", "converged=0 stray"),
        (3, " 0.0 0", " x 0"),
        (3, "1 1 ", "9 1 "),
        (3, " 0.0 0", " nan 0"),
        (3, " 0.0 0", " 0.0 0 0"),
    ], ids=["rings=x", "huge_mesh", "wrong_n", "stray_token", "non_numeric", "off_mesh",
            "nan_coordinate", "extra_field"])
    def test_rejects_malformed_state(self, line, old, new):
        st = geodesic_disk_state(FORM1, 8, 24, 1.0)
        lines = pl.state_dumps(st).splitlines()
        assert old in lines[line]
        lines[line] = lines[line].replace(old, new, 1)
        with pytest.raises(pl.GeometryError):
            pl.state_loads("\n".join(lines))

    def test_dumps_index_columns(self):
        st = geodesic_disk_state(FORM1, 8, 24, 1.0)
        lines = pl.state_dumps(st).splitlines()[1:]
        ij = [tuple(int(t) for t in ln.split()[:2]) for ln in lines]
        assert ij == [(0, 0)] + [(i, j) for i in range(1, 9) for j in range(24)]

    def test_dumps_equal_per_vertex_formatting(self, solved_wobble):
        st = solved_wobble
        table = st.mesh.stencil
        rim = st.mesh.boundary_mask()
        lines = pl.state_dumps(st).splitlines(keepends=True)
        assert len(lines) == 1 + st.mesh.vertex_count
        for v in range(st.mesh.vertex_count):
            coords = " ".join(repr(float(x)) for x in st.positions[v])
            assert lines[1 + v] == f"{table.ring[v]} {table.sector[v]} {coords} {int(rim[v])}\n"

    def test_solve_report_is_json(self, solved_wobble):
        import json

        rep = json.loads(pl.solve_report(solved_wobble))
        assert rep["converged"] is True
        assert rep["rings"] == 24


class TestHigherFiberDimensions:
    def test_n2_wobble_solve(self):
        loop = wobble_loop(n=2, k=96, amp=0.2, freq=2)
        st = pl.build_state(loop, 8, 24, 2.0)
        solved = pl.plateau_solve(st, tol=1e-7, max_iter=1000)
        assert solved.converged
        geo = pl.discrete_geometry(solved)
        inter = solved.mesh.interior_mask(2)
        assert np.nanmax(geo.K[inter]) < 5e-2


class TestBoundaryStability:
    def test_interior_stable_under_radius_increase(self):
        # meshes chosen so ring radii coincide (r_i = i/8 for both)
        loop = wobble_loop()
        s_lo = pl.plateau_solve(pl.build_state(loop, 24, 96, 3.0), tol=1e-9, max_iter=2000)
        s_hi = pl.plateau_solve(pl.build_state(loop, 32, 96, 4.0), tol=1e-9, max_iter=2000)
        assert s_lo.converged and s_hi.converged
        worst = 0.0
        for i in range(0, 13):  # inner half-disk of the R=3 mesh, r <= 1.5
            for j in range(96):
                v_lo = s_lo.mesh.vertex(i, j)
                v_hi = s_hi.mesh.vertex(i, j)
                gap = np.linalg.norm(s_lo.positions[v_lo] - s_hi.positions[v_hi])
                worst = max(worst, gap)
        assert worst <= 3e-2

import json
import subprocess
import sys

import pytest

from pseudoplateau import cli
from pseudoplateau import diagnostics as diag
from pseudoplateau import einstein as ein
from pseudoplateau import plateau as pl
from pseudoplateau.qcore import BilinearForm

from geometry_reference import geodesic_disk_state


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, run_cli):
    d = tmp_path_factory.mktemp("cli")
    res = run_cli("loop-gen", "--kind", "c1_wobble", "--samples", "96",
                  "--amplitude", "0.2", "--frequency", "3", "--out", "wobble.loop", cwd=d)
    assert res.returncode == 0, res.stderr
    res = run_cli("solve", "--loop", "wobble.loop", "--rings", "12", "--sectors", "36",
                  "--radius", "2.5", "--out", "run", cwd=d)
    assert res.returncode == 0, res.stderr
    return d


class TestLoopGen:
    def test_circle(self, tmp_path, run_cli):
        res = run_cli("loop-gen", "--kind", "circle", "--out", "c.loop", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "class=positive" in res.stdout

    def test_crown_has_four_arcs(self, tmp_path, run_cli):
        res = run_cli("loop-gen", "--kind", "crown", "--out", "cr.loop", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "class=semipositive" in res.stdout
        assert "photon_arcs=4" in res.stdout

    def test_excessive_wobble_rejected(self, tmp_path, run_cli):
        res = run_cli("loop-gen", "--kind", "c1_wobble", "--amplitude", "0.5",
                      "--frequency", "3", "--out", "w.loop", cwd=tmp_path)
        assert res.returncode == 3, res.stderr

    def test_custom_round_trip(self, tmp_path, run_cli):
        res = run_cli("loop-gen", "--kind", "rigid_arc", "--out", "a.loop", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        res = run_cli("loop-gen", "--kind", "custom", "--input", "a.loop",
                      "--out", "b.loop", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        from pseudoplateau.einstein import loop_load
        import numpy as np

        a = loop_load(tmp_path / "a.loop")
        b = loop_load(tmp_path / "b.loop")
        assert np.array_equal(a.thetas, b.thetas)
        # the loader renormalises fibers onto the sphere when re-reading
        assert np.allclose(a.fibers, b.fibers, atol=1e-14)


class TestSolve:
    def test_writes_state_and_report(self, workdir):
        assert (workdir / "run" / "state.txt").exists()
        rep = json.loads((workdir / "run" / "solve_report.json").read_text())
        assert rep["converged"] is True
        assert rep["final_residual"] < 1e-8

    def test_zero_budget_exit_two(self, workdir, run_cli):
        res = run_cli("solve", "--loop", "wobble.loop", "--rings", "12", "--sectors", "36",
                      "--radius", "2.5", "--max-iter", "0", "--out", "runz", cwd=workdir)
        assert res.returncode == 2, res.stderr

    def test_missing_loop_exit_three(self, workdir, run_cli):
        res = run_cli("solve", "--loop", "nope.loop", "--out", "runx", cwd=workdir)
        assert res.returncode == 3, res.stderr

    @pytest.mark.parametrize("radius", ["-1", "nan"])
    def test_degenerate_radius_exit_three(self, workdir, run_cli, radius):
        res = run_cli("solve", "--loop", "wobble.loop", "--rings", "12", "--sectors", "36",
                      "--radius", radius, "--out", "runr", cwd=workdir)
        assert res.returncode == 3, res.stderr
        assert "radius" in res.stderr
        assert not (workdir / "runr").exists()

    @pytest.mark.parametrize("rings,sectors", [("0", "36"), ("-12", "36"), ("12", "0"),
                                               ("12", "-36"), ("1000", "3000")],
                             ids=["zero_rings", "negative_rings", "zero_sectors",
                                  "negative_sectors", "too_many_vertices"])
    def test_mesh_size_out_of_bounds_exit_three(self, workdir, capsys, rings, sectors):
        code = cli.main(["solve", "--loop", str(workdir / "wobble.loop"), "--rings", rings,
                         "--sectors", sectors, "--radius", "2.5",
                         "--out", str(workdir / "runm")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error:")
        assert not (workdir / "runm").exists()


    @pytest.mark.parametrize("option,value", [("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
                                              ("--tol", "-1"), ("--max-iter", "-1"),
                                              ("--max-iter", "-3")])
    def test_degenerate_solver_parameters_exit_three(self, workdir, capsys, option, value):
        code = cli.main(["solve", "--loop", str(workdir / "wobble.loop"), "--rings", "12",
                         "--sectors", "36", "--radius", "2.5", option, value,
                         "--out", str(workdir / "runp")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error:")
        assert not (workdir / "runp").exists()

    def test_photon_arc_exit_three_naming_the_rim(self, tmp_path, capsys):
        assert cli.main(["loop-gen", "--kind", "rigid_arc", "--out", str(tmp_path / "a.loop")]) == 0
        code = cli.main(["solve", "--loop", str(tmp_path / "a.loop"), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error:") and "rim edges" in err and "tanh R" in err
        assert not (tmp_path / "run").exists()


class TestMalformedInput:
    # (command, file edited, line, text replaced, replacement)
    CASES = [
        ("solve", "wobble.loop", 1, None, "0 1 x"),
        ("solve", "wobble.loop", 0, " c1=1", " c1=1 stray"),
        ("audit", "run/state.txt", 0, "rings=12", "rings=x"),
        ("audit", "run/state.txt", 0, "converged=1", "converged=1 stray"),
        ("audit", "run/state.txt", 1, None, "0 0 0.0 x 1.0 0.0 0"),
    ]

    @pytest.mark.parametrize("command,name,line,old,new", CASES,
                             ids=["loop_non_numeric", "loop_stray_token", "state_rings=x",
                                  "state_stray_token", "state_non_numeric"])
    def test_exit_three_without_traceback(self, workdir, run_cli, tmp_path,
                                          command, name, line, old, new):
        lines = (workdir / name).read_text().splitlines()
        assert old is None or old in lines[line]
        lines[line] = new if old is None else lines[line].replace(old, new)
        bad = tmp_path / "bad"
        bad.write_text("\n".join(lines) + "\n")
        if command == "solve":
            args = ("solve", "--loop", bad, "--rings", "12", "--sectors", "36", "--radius", "2.5")
        else:
            args = ("audit", "--state", bad, "--loop", workdir / "wobble.loop")
        res = run_cli(*map(str, args), "--out", str(tmp_path / "out"), cwd=workdir)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr

    def test_no_traceback_in_a_fresh_process(self, workdir, run_cli_process, tmp_path):
        # in-process, an exception that leaves main fails the test; here a
        # real process's stderr is read
        self.test_exit_three_without_traceback(workdir, run_cli_process, tmp_path,
                                               *self.CASES[-1])


@pytest.mark.parametrize("radius,code", [("1.0", 0), ("1.000001", 3), ("1e300", 3)])
def test_state_header_radius_checked_against_rim(tmp_path, capsys, radius, code):
    # the 8x24 geodesic disk of radius 1, marked converged, under a header
    # radius that its rim vertices have or do not have
    text = pl.state_dumps(geodesic_disk_state(BilinearForm(1), 8, 24, 1.0))
    assert "R=1.0 converged=0" in text
    path = tmp_path / "state.txt"
    path.write_text(text.replace("R=1.0 converged=0", f"R={radius} converged=1", 1))
    out = tmp_path / "out"
    assert cli.main(["audit", "--state", str(path), "--audits",
                     "rigidity,asymptotic_hyperbolicity", "--out", str(out)]) == code
    if code == 3:
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


def test_unsolved_state_marked_converged_exit_three(workdir, tmp_path, capsys):
    # the build_state start is far from solved, whatever its header says
    start = pl.build_state(ein.loop_load(workdir / "wobble.loop"), 12, 36, 2.5)
    start.converged = True
    pl.state_save(start, tmp_path / "state.txt")
    out = tmp_path / "out"
    code = cli.main(["audit", "--state", str(tmp_path / "state.txt"), "--audits", "rigidity",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("error:") and f"above {pl.STATE_RESIDUAL_MAX:g}" in err
    assert not out.exists()
    # the solved state of the same loop and mesh still audits
    assert cli.main(["audit", "--state", str(workdir / "run" / "state.txt"),
                     "--audits", "rigidity", "--out", str(out)]) == 0


class TestAudit:
    def test_full_audit_passes(self, workdir, run_cli):
        res = run_cli("audit", "--state", "run/state.txt", "--loop", "wobble.loop",
                      "--audits", ",".join(diag.AUDITS),
                      "--seed", "3", "--out", "run", cwd=workdir)
        assert res.returncode == 0, res.stderr
        rep = json.loads((workdir / "run" / "audit_report.json").read_text())
        assert rep["passed"] is True
        assert sorted(rep["audits"]) == sorted(diag.AUDITS)
        for name in diag.AUDITS:
            assert rep["audits"][name]["passed"] is True
        cert = json.loads((workdir / "run" / "qs_certificate.json").read_text())
        assert cert["A"] == 2.0 and cert["B_measured"] >= 1.0
        assert len(cert["worst_quadruple"]) == 4
        for csv in ("k_profile.csv", "gradient_hist.csv", "distance_scatter.csv"):
            assert (workdir / "run" / csv).exists()

    def test_default_audits_without_loop_pass(self, workdir, run_cli):
        # without --loop, gradient and gromov take boundary points from the
        # projective classes of rim vertices
        res = run_cli("audit", "--state", "run/state.txt", "--seed", "3", "--out", "noloop",
                      cwd=workdir)
        assert res.returncode == 0, res.stderr
        res = run_cli("audit", "--state", "run/state.txt", "--loop", "wobble.loop",
                      "--seed", "3", "--out", "withloop", cwd=workdir)
        assert res.returncode == 0, res.stderr
        rim, loop = (json.loads((workdir / d / "audit_report.json").read_text())["audits"]
                     for d in ("noloop", "withloop"))
        assert sorted(rim) == ["distance_ratio", "gradient", "gromov", "rigidity"]
        assert all(rep["passed"] for rep in rim.values())
        for key in ("min_grad_sq", "max_grad_sq"):
            assert abs(rim["gradient"]["values"][key] - loop["gradient"]["values"][key]) <= 1e-3

    def test_unconverged_state_exit_three(self, workdir, run_cli):
        res = run_cli("solve", "--loop", "wobble.loop", "--rings", "12", "--sectors", "36",
                      "--radius", "2.5", "--max-iter", "0", "--out", "rf", cwd=workdir)
        assert res.returncode == 2, res.stderr
        res = run_cli("audit", "--state", "rf/state.txt", "--out", "rf", cwd=workdir)
        assert res.returncode == 3, res.stderr

    @pytest.mark.parametrize("audits,loop,extra", [("rigidity,no_such_audit", True, ()),
                                                   ("rigidity,hessian", False, ()),
                                                   ("rigidity,gradient", True, ("--seed", "-1")),
                                                   (",", True, ())],
                             ids=["unknown_name", "hessian_without_loop", "negative_seed",
                                  "no_audit_named"])
    def test_rejected_request_runs_no_audit(self, workdir, run_cli, audits, loop, extra):
        # the whole request is checked before the first audit runs
        args = ("audit", "--state", "run/state.txt", "--audits", audits, *extra,
                "--out", "rejected")
        res = run_cli(*args, *(("--loop", "wobble.loop") if loop else ()), cwd=workdir)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error:")
        assert "audit rigidity:" not in res.stdout
        assert not (workdir / "rejected" / "audit_report.json").exists()

    def test_missing_state_exit_three(self, workdir, run_cli):
        res = run_cli("audit", "--state", "missing.txt", "--out", "x", cwd=workdir)
        assert res.returncode == 3, res.stderr

    def test_byte_identical_reports(self, workdir, run_cli):
        for out in ("d1", "d2"):
            res = run_cli("audit", "--state", "run/state.txt", "--loop", "wobble.loop",
                          "--audits", "rigidity,gradient", "--seed", "11",
                          "--out", out, cwd=workdir)
            assert res.returncode == 0, res.stderr
        for name in ("audit_report.json", "k_profile.csv", "gradient_hist.csv",
                     "distance_scatter.csv"):
            b1 = (workdir / "d1" / name).read_bytes()
            b2 = (workdir / "d2" / name).read_bytes()
            assert b1 == b2


class TestUsage:
    # argparse's own exit code is 2, which the contract keeps for non-convergence
    @pytest.mark.parametrize("args", [
        ("loop-gen", "--kind", "bogus", "--out", "x.loop"),
        ("solve", "--loop", "wobble.loop", "--rings", "abc", "--out", "usage"),
        ("solve", "--out", "usage"),
        ("bogus",),
    ], ids=["unknown_kind", "non_integer_rings", "solve_without_loop", "unknown_command"])
    def test_usage_error_exit_three(self, workdir, run_cli, args):
        res = run_cli(*args, cwd=workdir)
        assert res.returncode == 3, res.stderr
        assert "error:" in res.stderr
        assert not (workdir / "x.loop").exists() and not (workdir / "usage").exists()

    def test_help_exit_zero(self, tmp_path, run_cli):
        res = run_cli("--help", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage:")


@pytest.mark.parametrize("args", [
    ("loop-gen", "--kind", "circle", "--out", "missing/c.loop"),
    ("solve", "--loop", "wobble.loop", "--rings", "12", "--sectors", "36", "--radius", "2.5",
     "--out", "file/run"),
    ("audit", "--state", "run/state.txt", "--audits", "rigidity", "--out", "file/out"),
], ids=["loop_gen", "solve", "audit"])
def test_unwritable_out_exit_three(workdir, run_cli, args):
    # a missing directory, or a path under a regular file
    (workdir / "file").write_text("")
    res = run_cli(*args, cwd=workdir)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("error:")
    assert not res.stdout


class TestProcess:
    def test_module_entry_point(self, tmp_path, run_cli_process):
        res = run_cli_process("loop-gen", "--kind", "circle", "--out", "c.loop", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "class=positive" in res.stdout
        assert (tmp_path / "c.loop").exists()

    def test_loop_gen_imports_no_scipy_sparse(self, tmp_path, python_env):
        # loop-gen needs qcore and einstein only; scipy comes with plateau
        script = ("import sys\n"
                  "from pseudoplateau import cli\n"
                  "assert cli.main(['loop-gen', '--kind', 'crown', '--out', 'cr.loop']) == 0\n"
                  "print('scipy.sparse' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=python_env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "False"


@pytest.fixture(scope="module")
def crown_dir(tmp_path_factory, run_cli):
    d = tmp_path_factory.mktemp("crown")
    res = run_cli("loop-gen", "--kind", "crown", "--samples", "96",
                  "--out", "crown.loop", cwd=d)
    assert res.returncode == 0, res.stderr
    res = run_cli("solve", "--loop", "crown.loop", "--rings", "16", "--sectors", "48",
                  "--radius", "1.2", "--out", "run", cwd=d)
    assert res.returncode == 0, res.stderr
    return d


class TestNegativeControl:
    def test_crown_fails_asymptotic_audit_with_exit_two(self, crown_dir, run_cli):
        res = run_cli("audit", "--state", "run/state.txt", "--loop", "crown.loop",
                      "--audits", "asymptotic_hyperbolicity", "--out", "run", cwd=crown_dir)
        assert res.returncode == 2, res.stderr
        rep = json.loads((crown_dir / "run" / "audit_report.json").read_text())
        assert rep["audits"]["asymptotic_hyperbolicity"]["passed"] is False

    def test_crown_boundary_extension_exit_three(self, crown_dir, run_cli):
        # the crown loop is not positive, which boundary_extension rejects
        res = run_cli("audit", "--state", "run/state.txt", "--loop", "crown.loop",
                      "--audits", "boundary_extension", "--out", "ext", cwd=crown_dir)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error:") and "positive loop" in res.stderr
        assert "Traceback" not in res.stderr
        # the request is rejected before the first audit runs and before
        # --out is made, also behind an audit that would pass
        res = run_cli("audit", "--state", "run/state.txt", "--loop", "crown.loop",
                      "--audits", "rigidity,boundary_extension", "--out", "ext2", cwd=crown_dir)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("error:") and "positive loop" in res.stderr
        assert "audit rigidity:" not in res.stdout
        assert not (crown_dir / "ext2").exists()


def test_audit_runs_one_geometry_pass(tmp_path, monkeypatch, solved_wobble_state):
    pl.state_save(solved_wobble_state, tmp_path / "state.txt")
    ein.loop_save(solved_wobble_state.loop, tmp_path / "wobble.loop")
    calls = []
    kernel = pl._geometry_pass
    monkeypatch.setattr(pl, "_geometry_pass", lambda st: calls.append(1) or kernel(st))
    code = cli.main(["audit", "--state", str(tmp_path / "state.txt"),
                     "--loop", str(tmp_path / "wobble.loop"),
                     "--audits", "rigidity,gradient,asymptotic_hyperbolicity,hessian",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(calls) == 1


def test_audit_builds_one_edge_graph(tmp_path, monkeypatch, solved_wobble_state):
    # the distance_ratio audit and the plot export share the state's graph
    pl.state_save(solved_wobble_state, tmp_path / "state.txt")
    calls = []
    build = diag._build_edge_graph
    monkeypatch.setattr(diag, "_build_edge_graph", lambda st: calls.append(1) or build(st))
    code = cli.main(["audit", "--state", str(tmp_path / "state.txt"),
                     "--audits", "distance_ratio", "--out", str(tmp_path / "out")])
    assert code == 0
    assert len(calls) == 1


def test_flattening_stall_exit_two(tmp_path, monkeypatch, capsys, solved_wobble_state):
    # a numeric stall on a valid converged state is a non-convergence, not invalid input
    pl.state_save(solved_wobble_state, tmp_path / "state.txt")
    ein.loop_save(solved_wobble_state.loop, tmp_path / "wobble.loop")

    def stall(residual, x):
        raise diag.FlatteningError("Gauss-Newton solve stalled at max residual 3.07e-10")

    monkeypatch.setattr(diag, "_gauss_newton", stall)
    code = cli.main(["audit", "--state", str(tmp_path / "state.txt"),
                     "--loop", str(tmp_path / "wobble.loop"),
                     "--audits", "rigidity,boundary_extension", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("flattening error: Gauss-Newton solve stalled")

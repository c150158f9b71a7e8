import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pseudoplateau.qcore import BilinearForm
from pseudoplateau import cli
from pseudoplateau import einstein as ein
from pseudoplateau import hspace as hs
from pseudoplateau import plateau as pl


FORM1 = BilinearForm(1)

# The source tree, absolute, so that a subprocess started in a temporary
# directory imports this checkout whether or not the package is installed.
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def run_cli():
    """Return ``run(*args, cwd)``: call ``cli.main(args)`` in this process,
    in the directory ``cwd``, and return its exit code and captured output
    as a ``subprocess.CompletedProcess``. An exception that leaves ``main``
    fails the calling test."""

    def run(*args, cwd):
        argv = [str(a) for a in args]
        out, err = io.StringIO(), io.StringIO()
        old = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(old)
        return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())

    return run


@pytest.fixture(scope="session")
def python_env():
    """The environment for a fresh ``python`` process that imports this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


@pytest.fixture(scope="session")
def run_cli_process(python_env):
    """Return ``run(*args, cwd)``: run ``python -m pseudoplateau.cli *args``
    in a fresh process in ``cwd``, for the tests whose subject is the
    process boundary."""

    def run(*args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "pseudoplateau.cli", *map(str, args)],
            cwd=cwd, env=python_env, capture_output=True, text=True,
        )

    return run


def make_wobble(n=1, k=128, amp=0.25, freq=3):
    th = np.linspace(0, 2 * np.pi, k, endpoint=False)
    if n == 1:
        phi = amp * np.sin(freq * th)
        fib = np.column_stack([np.cos(phi), np.sin(phi)])
    else:
        a = amp * np.cos(freq * th)
        b = amp * np.sin(freq * th)
        fib = np.zeros((k, n + 1))
        fib[:, 0] = np.sqrt(1 - a**2 - b**2)
        fib[:, 1] = a
        fib[:, 2] = b
    return ein.LipschitzLoop(th, fib, c1=True)


def make_circle(n=1, k=96):
    th = np.linspace(0, 2 * np.pi, k, endpoint=False)
    f = np.zeros(n + 1)
    f[0] = 1.0
    return ein.LipschitzLoop(th, np.tile(f, (k, 1)), c1=True)


def make_rigid_arc(k=96, slope=1.0 / 3.0, n=1):
    thetas = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    fibers = np.zeros((k, n + 1))
    for i, t in enumerate(thetas):
        phi = t if t <= np.pi / 2.0 else np.pi / 2.0 - (t - np.pi / 2.0) * slope
        fibers[i, :2] = (np.cos(phi), np.sin(phi))
    return ein.LipschitzLoop(thetas, fibers, c1=False)


def orbit_surface_gaps(crown, X):
    """Per-vertex distance from each row of X to the point of the crown's
    orbit surface with the same first two coordinates. That point lies on
    the surface, so each gap bounds the distance to the surface from above."""
    s, t = pl._barbot_ring_params(crown, np.arcsinh(np.hypot(X[:, 0], X[:, 1])),
                                  np.arctan2(X[:, 1], X[:, 0]))
    on = hs.barbot_surface_point(crown, s[:, None], t[:, None])
    return np.linalg.norm(X - on, axis=1)


@pytest.fixture(scope="session")
def solved_circle():
    return pl.plateau_solve(pl.build_state(make_circle(), 24, 72, 3.0),
                            tol=1e-9, max_iter=500)


@pytest.fixture(scope="session")
def solved_wobble_state():
    return pl.plateau_solve(pl.build_state(make_wobble(), 24, 72, 3.0),
                            tol=1e-9, max_iter=2000)


@pytest.fixture(scope="session")
def solved_crown_state():
    crown = ein.barbot_crown_standard(1)
    loop = ein.crown_loop(crown, samples_per_edge=24)
    return pl.plateau_solve(pl.build_state(loop, 16, 48, 1.2),
                            tol=1e-8, max_iter=2000)


@pytest.fixture(scope="session")
def barbot_grid_state():
    crown = ein.barbot_crown_standard(1)
    st = pl.barbot_state(FORM1, crown, 32, 96, 1.2)
    st.loop = ein.crown_loop(crown, samples_per_edge=24)
    return st

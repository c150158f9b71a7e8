"""Output checks that do not call the program.

Each check reads the files or values a workload produced and returns a
list of problems, empty when the output passes. The geometry is recomputed
here with plain numpy from the file formats; the bounds are the paper's
bounds for a positive loop plus the slack the audits state. Nothing is
compared with a stored copy of an earlier output. `selftest.py` shows that
each check rejects a corrupted output.
"""

from __future__ import annotations

import math

import numpy as np


def parse_loop(text):
    """(thetas, fibers) of an `einstein-loop v1` file, sorted by angle."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    thetas = rows[:, 0] % (2.0 * math.pi)
    order = np.argsort(thetas)
    return thetas[order], rows[order, 1:]


def parse_state(text):
    """Header fields, ring and sector index, positions and pinned flags of
    an `h2n-surface v1` file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = dict(tok.split("=") for tok in lines[0].split()[2:])
    rows = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    return (header, rows[:, 0].astype(int), rows[:, 1].astype(int),
            rows[:, 2:-1], rows[:, -1] == 1.0)


def signs(dim):
    s = -np.ones(dim)
    s[:2] = 1.0
    return s


def quadric_problems(X, tol=1e-9):
    """Every vertex lies on q(x) = -1 for q of signature (2, n+1)."""
    q = np.einsum("ij,ij->i", X * signs(X.shape[1]), X)
    worst = float(np.max(np.abs(q + 1.0)))
    return [] if worst <= tol else [f"vertex off the quadric by {worst:.3e}"]


def vertex_index(rings, sectors, ring, sector):
    """Map (ring, sector) to a row of the state file; the center is ring 0."""
    index = np.full((rings + 1, sectors), -1, dtype=int)
    index[ring, sector] = np.arange(len(ring))
    index[0, :] = index[0, 0]
    return index


def polar_faces(rings, sectors, index):
    """The polar triangulation: a fan around the center, then each quad
    between rings i-1 and i split along its (i-1, j)-(i, j+1) diagonal."""
    j = np.arange(sectors)
    jn = (j + 1) % sectors
    faces = [np.column_stack([index[0, j], index[1, j], index[1, jn]])]
    for i in range(2, rings + 1):
        faces.append(np.column_stack([index[i - 1, j], index[i, j], index[i, jn]]))
        faces.append(np.column_stack([index[i - 1, j], index[i, jn], index[i - 1, jn]]))
    return np.vstack(faces)


def face_problems(X, faces):
    """The induced Gram matrix of every face is positive definite."""
    s = signs(X.shape[1])
    E1 = X[faces[:, 1]] - X[faces[:, 0]]
    E2 = X[faces[:, 2]] - X[faces[:, 0]]
    a = np.einsum("ij,ij->i", E1 * s, E1)
    b = np.einsum("ij,ij->i", E1 * s, E2)
    c = np.einsum("ij,ij->i", E2 * s, E2)
    bad = int(np.sum((a <= 0) | (a * c - b * b <= 0)))
    return [] if bad == 0 else [f"{bad} faces with an induced Gram matrix that is not positive definite"]


def slerp_fiber(thetas, fibers, theta):
    """Geodesic interpolation of the fiber between the samples bracketing theta."""
    k = len(thetas)
    theta = theta % (2.0 * math.pi)
    i = (int(np.searchsorted(thetas, theta, side="right")) - 1) % k
    j = (i + 1) % k
    gap = (thetas[j] - thetas[i]) % (2.0 * math.pi)
    t = ((theta - thetas[i]) % (2.0 * math.pi)) / gap
    f, g = fibers[i], fibers[j]
    ang = math.acos(max(-1.0, min(1.0, float(f @ g))))
    if ang < 1e-12:
        return f
    return (math.sin((1.0 - t) * ang) * f + math.sin(t * ang) * g) / math.sin(ang)


def rim_problems(header, ring, sector, X, pinned, thetas, fibers, tol=1e-9):
    """Rim vertices are pinned at (sinh R cos t, sinh R sin t, cosh R f(t))
    with f interpolated from the loop file; no other vertex is pinned."""
    rings, sectors, R = int(header["rings"]), int(header["sectors"]), float(header["R"])
    rim = ring == rings
    problems = []
    if not np.array_equal(pinned, rim):
        problems.append("pinned vertices are not exactly the rim")
    worst = 0.0
    for v in np.flatnonzero(rim):
        t = 2.0 * math.pi * sector[v] / sectors
        want = np.concatenate([[math.sinh(R) * math.cos(t), math.sinh(R) * math.sin(t)],
                               math.cosh(R) * slerp_fiber(thetas, fibers, t)])
        worst = max(worst, float(np.max(np.abs(X[v] - want))))
    if worst > tol * math.cosh(R):
        problems.append(f"rim vertex off its Dirichlet value by {worst:.3e}")
    return problems


def symmetry_problems(header, index, X, tol=1e-8):
    """A loop with f(t + 2pi/3) = f(t) spans a surface that the rotation by
    a third of a turn in the (x1, x2) plane maps to itself: vertex (i, j)
    goes to (i, j + sectors/3)."""
    sectors = int(header["sectors"])
    if sectors % 3:
        return [f"{sectors} sectors do not admit the rotation by a third of a turn"]
    c, s = math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)
    rotated = X.copy()
    rotated[:, 0] = c * X[:, 0] - s * X[:, 1]
    rotated[:, 1] = s * X[:, 0] + c * X[:, 1]
    shifted = X[np.roll(index, -(sectors // 3), axis=1)]
    worst = float(np.max(np.abs(shifted - rotated[index])))
    return [] if worst <= tol else [f"rotation by a third of a turn moves the surface by {worst:.3e}"]


def state_problems(state_text, loop_text, symmetric=False):
    """Quadric, face and rim checks, and the rotation check when the loop
    has the three-fold symmetry."""
    header, ring, sector, X, pinned = parse_state(state_text)
    rings, sectors = int(header["rings"]), int(header["sectors"])
    if len(ring) != 1 + rings * sectors:
        return [f"state has {len(ring)} vertices, expected {1 + rings * sectors}"]
    thetas, fibers = parse_loop(loop_text)
    index = vertex_index(rings, sectors, ring, sector)
    problems = quadric_problems(X)
    problems += face_problems(X, polar_faces(rings, sectors, index))
    problems += rim_problems(header, ring, sector, X, pinned, thetas, fibers)
    if symmetric:
        problems += symmetry_problems(header, index, X)
    return problems


def audit_problems(report, certificate, n_quadruples):
    """Audit values within the paper's bounds for a positive loop plus the
    audits' stated slack: K <= 0 (+0.05), |II|^2 <= 2 (+0.1), gradient^2 in
    [1, 2] (-0.01, +0.05), outer-ring mean K within 0.1 of -1, and a
    finite certificate B >= 1 over exactly the requested quadruples."""
    audits = report["audits"]
    problems = []
    rig = audits["rigidity"]["values"]
    if not rig["max_K"] <= 0.05:
        problems.append(f"max K {rig['max_K']} above 0.05")
    if not rig["max_II_sq"] <= 2.1:
        problems.append(f"max |II|^2 {rig['max_II_sq']} above 2.1")
    grad = audits["gradient"]["values"]
    if not (0.99 <= grad["min_grad_sq"] and grad["max_grad_sq"] <= 2.05):
        problems.append(f"gradient^2 range [{grad['min_grad_sq']}, {grad['max_grad_sq']}] "
                        "outside [0.99, 2.05]")
    outer = audits["asymptotic_hyperbolicity"]["values"]["outer_ring_mean_K"]
    if not abs(outer + 1.0) <= 0.1:
        problems.append(f"outer-ring mean K {outer} not within 0.1 of -1")
    B = certificate["B_measured"]
    if not (math.isfinite(B) and B >= 1.0):
        problems.append(f"certificate B {B} is not finite and >= 1")
    if certificate["quadruples_tested"] != n_quadruples:
        problems.append(f"{certificate['quadruples_tested']} quadruples certified, "
                        f"{n_quadruples} requested")
    if audits["boundary_extension"]["values"]["B_measured"] != B:
        problems.append("audit report and certificate disagree on B")
    return problems


def probe_problems(out, amplitude, frequency, arc_corner, A):
    """Loop-probe results against properties the method must have."""
    problems = []
    if out["wobble_class"] != "positive":
        problems.append(f"wobble classified {out['wobble_class']!r}, not 'positive'")
    if out["arc_class"] != "semipositive":
        problems.append(f"rigid arc classified {out['arc_class']!r}, not 'semipositive'")
    arc_thetas = out["arc_thetas"]
    want = np.flatnonzero(arc_thetas <= arc_corner + 1e-12)
    if len(out["arcs"]) != 1:
        problems.append(f"photon_arc found {len(out['arcs'])} arcs, expected one")
    else:
        start, end = out["arcs"][0]
        k = len(arc_thetas)
        got = np.sort((start + np.arange((end - start) % k + 1)) % k)
        if not np.array_equal(got, want):
            problems.append(f"photon arc {out['arcs'][0]} is not the samples with theta <= pi/2")
    probe = out["probe"]
    excess = probe["base_margin"] - (1.0 - amplitude * frequency)
    if not 0.0 <= excess <= 1e-3:
        problems.append(f"base margin exceeds 1 - amplitude*frequency by {excess:.3e}, "
                        "outside [0, 1e-3]")
    if not probe["min_margin"] > 0.0:
        problems.append(f"min margin {probe['min_margin']} is not positive")
    if not out["degeneration"]["final"] < 1e-3:
        problems.append(f"degeneration ends {out['degeneration']['final']:.3e} from the crown")
    B = out["certificate"].B
    # on a circle map b = r^2 exactly, and the window keeps |r| in [1/A, A]
    if not (1.0 <= B <= A * A * (1.0 + 1e-12)):
        problems.append(f"circle-map certificate B {B} outside [1, A^2]")
    return problems

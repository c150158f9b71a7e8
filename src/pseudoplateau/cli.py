"""Command-line driver: loop generation, solving, and audits.

Exit codes: 0 success, 2 non-convergence or audit failure, 3 invalid input.
All reports are machine-readable (JSON/CSV) and byte-identical for
identical configuration and seed. `plateau` and `diagnostics`, and with them
scipy, are imported only by the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .qcore import GeometryError
from . import einstein as ein


# The most samples `loop-gen` generates. The loop classifiers build k x k
# matrices, about 134 MB each at this size.
MAX_LOOP_SAMPLES = 4096


def generate_loop(kind: str, n: int = 1, samples: int = 128, amplitude: float = 0.25,
                  frequency: int = 3, input_path: str | None = None) -> ein.LipschitzLoop:
    # checked before anything is sized
    if not 3 <= samples <= MAX_LOOP_SAMPLES:
        raise ein.InvalidLoopError(f"--samples must lie in [3, {MAX_LOOP_SAMPLES}], got {samples}")
    if n < 1:
        raise ein.InvalidLoopError(f"--n must be at least 1, got {n}")
    if kind == "c1_wobble":
        if not np.isfinite(amplitude):
            raise ein.InvalidLoopError(f"--amplitude must be finite, got {amplitude}")
        # the sampled phase frequency * theta, theta below 2 pi, must be a finite float
        if not abs(frequency) < sys.float_info.max / (2.0 * np.pi):
            raise ein.InvalidLoopError("--frequency is too large: the wobble's phase overflows")
        # the wobble's Lipschitz constant is |amplitude * frequency|
        if abs(amplitude * frequency) >= 0.95:
            raise ein.InvalidLoopError("wobble would not stay strictly contracting")
        # at n >= 2 the fiber's first coordinate is sqrt(1 - amplitude^2)
        if n >= 2 and abs(amplitude) >= 1.0:
            raise ein.InvalidLoopError(f"--amplitude must lie in (-1, 1) at n >= 2, got {amplitude}")
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    if kind == "circle":
        fibers = np.tile(np.eye(1, n + 1), (samples, 1))
        return ein.LipschitzLoop(thetas, fibers, c1=True)
    if kind == "c1_wobble":
        if n == 1:
            phi = amplitude * np.sin(frequency * thetas)
            fibers = np.column_stack([np.cos(phi), np.sin(phi)])
        else:
            a = amplitude * np.cos(frequency * thetas)
            b = amplitude * np.sin(frequency * thetas)
            fibers = np.zeros((samples, n + 1))
            fibers[:, 0] = np.sqrt(1.0 - a**2 - b**2)
            fibers[:, 1] = a
            fibers[:, 2] = b
        return ein.LipschitzLoop(thetas, fibers, c1=True)
    if kind == "rigid_arc":
        # rigid on [0, pi/2]; a fall of slope 1/3 over the other 3 pi/2 closes the loop
        fall = (thetas - np.pi / 2.0) * (1.0 / 3.0)
        phi = np.where(thetas <= np.pi / 2.0, thetas, np.pi / 2.0 - fall)
        fibers = np.zeros((samples, n + 1))
        fibers[:, 0] = np.cos(phi)
        fibers[:, 1] = np.sin(phi)
        return ein.LipschitzLoop(thetas, fibers, c1=False)
    if kind == "crown":
        crown = ein.barbot_crown_standard(n)
        return ein.crown_loop(crown, samples_per_edge=max(8, samples // 4))
    if kind == "custom":
        if not input_path:
            raise ein.InvalidLoopError("custom loops need --input")
        return ein.loop_load(input_path)
    raise ein.InvalidLoopError(f"unknown loop kind {kind!r}")


def cmd_loop_gen(args) -> int:
    loop = generate_loop(args.kind, n=args.n, samples=args.samples, amplitude=args.amplitude,
                         frequency=args.frequency, input_path=args.input)
    cls = ein.loop_classify(loop)
    if cls == "invalid":
        raise ein.InvalidLoopError("generated loop is not semi-positive")
    if args.kind in ("circle", "c1_wobble") and cls != "positive":
        raise ein.InvalidLoopError("generator produced a non-positive loop")
    ein.loop_save(loop, args.out)
    arcs = ein.photon_arc(loop) if cls == "semipositive" else []
    print(f"wrote {os.path.basename(args.out)}: n={loop.n} samples={loop.size} "
          f"class={cls} margin={loop.lipschitz_margin:.6f} photon_arcs={len(arcs)}")
    return 0


def cmd_solve(args) -> int:
    from . import plateau as pl
    # --out is checked before the solve, and made only after it
    made = os.path.isdir(args.out)
    where = args.out if made else os.path.dirname(os.path.abspath(args.out))
    if not made and (os.path.lexists(args.out) or not os.path.isdir(where)):
        raise NotADirectoryError(f"--out {args.out} is not a directory and cannot be made one")
    if not os.access(where, os.W_OK | os.X_OK):
        raise PermissionError(f"--out {args.out} is not writable")
    state = pl.build_state(ein.loop_load(args.loop), args.rings, args.sectors, args.radius)
    try:
        solved = pl.plateau_solve(state, tol=args.tol, max_iter=args.max_iter)
    except pl.SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    state_path = os.path.join(args.out, "state.txt")
    report_path = os.path.join(args.out, "solve_report.json")
    pl.state_save(solved, state_path)
    with open(report_path, "w") as fh:
        fh.write(pl.solve_report(solved))
        fh.write("\n")
    print(f"solve: converged={solved.converged} iterations={solved.iterations} "
          f"residual={solved.final_residual:.3e}")
    return 0 if solved.converged else 2


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def cmd_audit(args) -> int:
    from . import diagnostics as diag, plateau as pl
    names = [a.strip() for a in args.audits.split(",") if a.strip()]
    # the whole request is checked before the first audit runs
    if not names:
        raise GeometryError("--audits names no audit")
    if args.seed < 0:
        raise GeometryError(f"--seed must be non-negative, got {args.seed}")
    for name in names:
        if name not in diag.AUDITS:
            raise GeometryError(f"unknown audit {name!r}")
        if diag.AUDITS[name].needs_loop and not args.loop:
            raise GeometryError(f"the {name} audit needs --loop")
    state = pl.state_load(args.state)
    if args.loop:
        state.loop = ein.loop_load(args.loop)
        if "boundary_extension" in names and ein.loop_classify(state.loop) != "positive":
            raise GeometryError("boundary extension requires a positive loop")
    if not state.converged:
        raise GeometryError("state is not converged")
    # the header's converged=1 is not taken on trust; a damaged state gives
    # a residual of nan, which the check rejects
    with np.errstate(all="ignore"):
        residual = float(np.max(np.linalg.norm(pl.mean_curvature_residual(state), axis=1)))
    if not residual <= pl.STATE_RESIDUAL_MAX:
        raise GeometryError(f"state is marked converged, but its residual {residual:.3e} "
                            f"is above {pl.STATE_RESIDUAL_MAX:g}")
    os.makedirs(args.out, exist_ok=True)
    reports = {}
    all_passed = True
    try:
        for name in names:
            entry = diag.AUDITS[name]
            rep = entry.run(state, args.seed)
            if entry.artifact:
                with open(os.path.join(args.out, entry.artifact), "w") as fh:
                    fh.write(rep.artifact_text)
            reports[name] = rep.to_dict()
            all_passed = bool(all_passed and rep.passed)
            print(f"audit {name}: {'pass' if rep.passed else 'FAIL'}")
    except diag.FlatteningError as exc:
        print(f"flattening error: {exc}", file=sys.stderr)
        return 2
    _write_plot_data(state, args.out, args.seed)
    with open(os.path.join(args.out, "audit_report.json"), "w") as fh:
        json.dump({"audits": reports, "seed": args.seed, "passed": all_passed},
                  fh, sort_keys=True)
        fh.write("\n")
    return 0 if all_passed else 2


def _write_plot_data(state, out: str, seed: int) -> None:
    """The plot CSVs of a `plateau.SurfaceState`, drawn with the audits' own
    samplers and one seeded stream: the ring profile of K, a histogram of
    squared horofunction gradients (12 boundary points x 40 vertices), and
    (graph, spatial) distance pairs (8 sources x 25 targets)."""
    from . import diagnostics as diag, plateau as pl
    geo = pl.discrete_geometry(state)
    mesh = state.mesh
    rows = [(i, mesh.radius * i / mesh.rings, k)
            for i, k in enumerate(diag._ring_mean_K(state, geo)) if np.isfinite(k)]
    _write_csv(os.path.join(out, "k_profile.csv"), ["ring", "r", "mean_K"], rows)

    rng = np.random.default_rng(seed)
    grads, _ = diag._gradient_samples(state, geo, rng, 12, 40)
    hist, edges = np.histogram(grads, bins=24, range=(0.9, 2.1))
    _write_csv(os.path.join(out, "gradient_hist.csv"), ["bin_left", "bin_right", "count"],
               zip(edges[:-1], edges[1:], hist))
    _write_csv(os.path.join(out, "distance_scatter.csv"), ["d_graph", "eth"],
               diag._distance_pairs(state, rng, 8, 25))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pseudoplateau",
        description="Boundary loops, maximal-surface solves, and rigidity audits in H^{2,n}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("loop-gen", help="generate a boundary loop file")
    p_gen.add_argument("--kind", required=True,
                       choices=["circle", "c1_wobble", "rigid_arc", "crown", "custom"])
    p_gen.add_argument("--n", type=int, default=1)
    p_gen.add_argument("--samples", type=int, default=128)
    p_gen.add_argument("--amplitude", type=float, default=0.25)
    p_gen.add_argument("--frequency", type=int, default=3)
    p_gen.add_argument("--input", default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_loop_gen)

    p_solve = sub.add_parser("solve", help="solve the asymptotic Plateau problem for a loop")
    p_solve.add_argument("--loop", required=True)
    p_solve.add_argument("--rings", type=int, default=24)
    p_solve.add_argument("--sectors", type=int, default=72)
    p_solve.add_argument("--radius", type=float, default=3.0)
    p_solve.add_argument("--tol", type=float, default=1e-8)
    p_solve.add_argument("--max-iter", type=int, default=2000)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_audit = sub.add_parser("audit", help="run numeric audits on a solved state")
    p_audit.add_argument("--state", required=True)
    p_audit.add_argument("--loop", default=None)
    p_audit.add_argument("--audits",
                         default="rigidity,gradient,distance_ratio,gromov")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--out", required=True)
    p_audit.set_defaults(func=cmd_audit)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, but exit 2
        # means non-convergence here: a usage error is invalid input
        return 0 if exc.code == 0 else 3
    try:
        return args.func(args)
    except (GeometryError, OSError) as exc:  # invalid input, unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

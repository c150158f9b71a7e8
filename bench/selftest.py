"""Show that every output check of the benchmark can fail.

    python3 bench/selftest.py

Produces real outputs (a small symmetric solve, one `audit_24x72` round and
one `loop_probes` round), requires each check to pass on them, then
corrupts one thing at a time and requires the check to reject it. Exits 1
if any case goes the wrong way. Takes about half a minute.
"""

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

import checks
import run
import tracing
import workloads

failures = []


def expect(name, problems, ok):
    good = (not problems) if ok else bool(problems)
    print(f"{'ok  ' if good else 'FAIL'} {name}: {problems[0] if problems else 'passes'}")
    if not good:
        failures.append(name)


def dump_state(header_line, ring, sector, X, pinned):
    rows = [header_line]
    for v in range(len(ring)):
        coords = " ".join(repr(float(x)) for x in X[v])
        rows.append(f"{ring[v]} {sector[v]} {coords} {int(pinned[v])}")
    return "\n".join(rows) + "\n"


def rotate_fiber(x, angle):
    """Rotate the two fiber coordinates of x; q(x) is unchanged."""
    y = x.copy()
    c, s = math.cos(angle), math.sin(angle)
    y[2], y[3] = c * x[2] - s * x[3], s * x[2] + c * x[3]
    return y


def state_cases(mods, tmp):
    cli = mods["cli"]
    loop_path, out = tmp / "wobble.loop", tmp / "solve"
    cli.main(["loop-gen", *workloads.WOBBLE, "--samples", "36", "--out", str(loop_path)])
    cli.main(["solve", "--loop", str(loop_path), "--rings", "12", "--sectors", "36",
              "--tol", "1e-9", "--out", str(out)])
    text, loop_text = (out / "state.txt").read_text(), loop_path.read_text()
    expect("state checks pass on a solved state", checks.state_problems(text, loop_text, True), True)

    header_line = text.splitlines()[0]
    header, ring, sector, X, pinned = checks.parse_state(text)
    index = checks.vertex_index(12, 36, ring, sector)
    inner = index[6, 5]
    rim = index[12, 7]

    def corrupted(name, edit, symmetric=True):
        X2, pinned2 = X.copy(), pinned.copy()
        edit(X2, pinned2)
        expect(name, checks.state_problems(dump_state(header_line, ring, sector, X2, pinned2),
                                           loop_text, symmetric), False)

    corrupted("vertex pushed off the quadric", lambda X2, p: X2.__setitem__(inner, 1.001 * X2[inner]),
              symmetric=False)
    corrupted("face collapsed onto a neighbour",
              lambda X2, p: X2.__setitem__(inner, X2[index[6, 6]]), symmetric=False)
    corrupted("rim vertex moved along the quadric",
              lambda X2, p: X2.__setitem__(rim, rotate_fiber(X2[rim], 1e-6)), symmetric=False)
    corrupted("rim vertex left unpinned", lambda X2, p: p.__setitem__(rim, False), symmetric=False)
    corrupted("symmetry broken at one interior vertex",
              lambda X2, p: X2.__setitem__(inner, rotate_fiber(X2[inner], 1e-6)))


def audit_cases(mods):
    work = workloads.make("audit_24x72")
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        work.setup(mods, Path(tmp), 1)
        d = work.round_dir(0)
        work.run_round(workloads.Round(mods, tracing.NullTracer()), d)
        expect("audit round passes its checks", work.check(d), True)
        report = json.loads((d / "audit_report.json").read_text())
        cert = json.loads((d / "qs_certificate.json").read_text())

        def corrupted(name, edit):
            r2, c2 = copy.deepcopy(report), copy.deepcopy(cert)
            edit(r2, c2)
            expect(name, checks.audit_problems(r2, c2, workloads.EXTENSION_QUADRUPLES), False)

        def setv(audit, key, value):
            return lambda r, c: r["audits"][audit]["values"].__setitem__(key, value)

        def setb(value):
            def edit(r, c):
                c["B_measured"] = value
                r["audits"]["boundary_extension"]["values"]["B_measured"] = value
            return edit

        corrupted("positive curvature", setv("rigidity", "max_K", 0.2))
        corrupted("|II|^2 above 2.1", setv("rigidity", "max_II_sq", 2.5))
        corrupted("gradient^2 below 0.99", setv("gradient", "min_grad_sq", 0.9))
        corrupted("gradient^2 above 2.05", setv("gradient", "max_grad_sq", 2.2))
        corrupted("outer ring far from -1", setv("asymptotic_hyperbolicity", "outer_ring_mean_K", -0.8))
        corrupted("B < 1", setb(0.5))
        corrupted("B infinite", setb(float("inf")))
        corrupted("one quadruple short", lambda r, c: c.__setitem__("quadruples_tested",
                                                                    c["quadruples_tested"] - 1))
        corrupted("report and certificate disagree", lambda r, c: c.__setitem__("B_measured",
                                                                                c["B_measured"] + 1))

        d2 = work.round_dir(1)
        for p in d.iterdir():
            if p.is_file():
                (d2 / p.name).write_bytes(p.read_bytes())
        (d2 / "audit_report.json").write_text((d / "audit_report.json").read_text() + " ")
        expect("same seed, different report bytes", work.check(d2), False)
        (d2 / "audit_report.json").write_bytes((d / "audit_report.json").read_bytes())
        work.first = None
        (d2 / "solve_report.json").write_text(
            (d / "solve_report.json").read_text().replace('"converged": true', '"converged": false'))
        expect("solve report not converged", work.check(d2), False)


def probe_cases(mods):
    work = workloads.make("loop_probes")
    work.setup(mods, None, 1)
    out = work.run_round(workloads.Round(mods, tracing.NullTracer()), None)
    expect("loop_probes round passes its checks", work.check(out), True)

    def corrupted(name, edit):
        o2 = copy.deepcopy(out)
        edit(o2)
        expect(name, work.check(o2), False)

    corrupted("wobble not positive", lambda o: o.__setitem__("wobble_class", "semipositive"))
    corrupted("rigid arc not semipositive", lambda o: o.__setitem__("arc_class", "positive"))
    corrupted("photon arc shifted by one sample",
              lambda o: o.__setitem__("arcs", [(o["arcs"][0][0] + 1, o["arcs"][0][1] + 1)]))
    corrupted("two photon arcs", lambda o: o.__setitem__("arcs", o["arcs"] * 2))
    corrupted("base margin above 1 - a*f + 1e-3",
              lambda o: o["probe"].__setitem__("base_margin", o["probe"]["base_margin"] + 2e-3))
    corrupted("base margin below 1 - a*f",
              lambda o: o["probe"].__setitem__("base_margin", 1.0 - 0.75 - 1e-6))
    corrupted("min margin zero", lambda o: o["probe"].__setitem__("min_margin", 0.0))
    corrupted("degeneration ends far from the crown",
              lambda o: o["degeneration"].__setitem__("final", 2e-3))
    corrupted("circle-map B above A^2", lambda o: setattr(o["certificate"], "B", 4.001))
    corrupted("circle-map B below 1", lambda o: setattr(o["certificate"], "B", 0.99))


def main():
    sys.path.insert(0, str(run.SRC))
    mods = run.import_package()
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        state_cases(mods, Path(tmp))
    audit_cases(mods)
    probe_cases(mods)
    print(f"{len(failures)} cases went the wrong way" if failures else "every check can fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutation fuzzing of the loop and state file parsers.

Each example starts from a valid file and applies a few edits of the kinds
a damaged or hand-edited file shows: a truncated line, a dropped or
duplicated field or line, a header value replaced by a non-numeric token or
by a huge or negative size. Whatever the edits, the parser returns a parsed
object or raises its own error type, never anything else. Run through the
CLI (`solve` for a loop, `audit` for a state), a file that the parser
rejects exits 3 with an `error:` line, and no exception leaves `cli.main`.
"""

import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseudoplateau import cli
from pseudoplateau import einstein as ein
from pseudoplateau import plateau as pl
from pseudoplateau.qcore import BilinearForm, GeometryError

from geometry_reference import geodesic_disk_state


def _loop_text(k=12):
    th = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    a, b = 0.2 * np.cos(3 * th), 0.2 * np.sin(3 * th)
    fibers = np.column_stack([np.sqrt(1.0 - a**2 - b**2), a, b])
    return ein.loop_dumps(ein.LipschitzLoop(th, fibers, c1=True))


LOOP_TEXT = _loop_text()
STATE_TEXT = pl.state_dumps(geodesic_disk_state(BilinearForm(1), 8, 24, 1.0))

SIZES = [0, 1, 2, 3, -1, -3, 7, 10**6, 10**9, 10**15, -(10**9)]
TOKENS = ["", "x", "1.5", "nan", "inf", "-inf", "1e999", "=", "n=1", "0x10", "--1"]

# a header value: a size, huge or negative, or a non-numeric token
header_values = st.one_of(st.sampled_from(SIZES).map(str), st.sampled_from(TOKENS),
                          st.integers(-(10**18), 10**18).map(str))
# a body field: a number in any notation, or a token that is not one
body_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.integers(-(10**6), 10**6).map(str), st.sampled_from(TOKENS))


@st.composite
def edit(draw):
    kind = draw(st.sampled_from(["truncate_line", "drop_field", "duplicate_field",
                                 "replace_field", "drop_line", "duplicate_line",
                                 "header_value"]))
    return (kind, draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)),
            draw(header_values if kind == "header_value" else body_values))


def mutate(text, edits):
    lines = text.splitlines()
    for kind, a, b, value in edits:
        if not lines:
            break
        i = a % len(lines)
        toks = lines[i].split()
        k = b % max(len(toks), 1)
        if kind == "truncate_line":
            lines[i] = lines[i][: b % (len(lines[i]) + 1)]
        elif kind == "drop_field" and toks:
            lines[i] = " ".join(toks[:k] + toks[k + 1:])
        elif kind == "duplicate_field" and toks:
            lines[i] = " ".join(toks[: k + 1] + toks[k:])
        elif kind == "replace_field" and toks:
            lines[i] = " ".join(toks[:k] + [value] + toks[k + 1:])
        elif kind == "drop_line":
            del lines[i]
        elif kind == "duplicate_line":
            lines.insert(i, lines[i])
        elif kind == "header_value":
            head = lines[0].split()
            keyed = [j for j, tok in enumerate(head) if "=" in tok]
            if keyed:
                j = keyed[b % len(keyed)]
                head[j] = f"{head[j].split('=')[0]}={value}"
                lines[0] = " ".join(head)
    return "\n".join(lines) + "\n"


edits = st.lists(edit(), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(edits)
def test_mutated_loop_parses_or_raises_invalid_loop(changes):
    try:
        loop = ein.loop_loads(mutate(LOOP_TEXT, changes))
    except ein.InvalidLoopError:
        return
    assert isinstance(loop, ein.LipschitzLoop)
    assert np.all(np.isfinite(loop.thetas)) and np.all(np.isfinite(loop.fibers))


@settings(max_examples=150, deadline=None)
@given(edits)
def test_mutated_state_parses_or_raises_geometry_error(changes):
    try:
        state = pl.state_loads(mutate(STATE_TEXT, changes))
    except GeometryError:
        return
    assert isinstance(state, pl.SurfaceState)
    assert np.all(np.isfinite(state.positions))


# the geodesic disk solves the Plateau problem exactly, so the audit may run
CONVERGED_STATE_TEXT = STATE_TEXT.replace("converged=0", "converged=1", 1)


def _run_on_file(run_cli, text, *args):
    """Write `text` to `input.txt` in a temporary directory, run the CLI on
    `args` there, and return the exit code and stderr."""
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "input.txt").write_text(text)
        res = run_cli(*args, cwd=d)
    return res.returncode, res.stderr


@settings(max_examples=150, deadline=None)
@given(edits)
def test_mutated_loop_through_solve_exits_three_when_rejected(run_cli, changes):
    text = mutate(LOOP_TEXT, changes)
    code, err = _run_on_file(run_cli, text, "solve", "--loop", "input.txt", "--rings", "8",
                             "--sectors", "24", "--radius", "1.0", "--max-iter", "0",
                             "--out", "out")
    try:
        ein.loop_loads(text)
    except ein.InvalidLoopError:
        assert code == 3 and err.startswith("error:"), (code, err)
        return
    assert code in (2, 3), (code, err)


@settings(max_examples=150, deadline=None)
@given(edits)
def test_mutated_state_through_audit_exits_three_when_rejected(run_cli, changes):
    text = mutate(CONVERGED_STATE_TEXT, changes)
    code, err = _run_on_file(run_cli, text, "audit", "--state", "input.txt",
                             "--audits", "rigidity", "--out", "out")
    try:
        pl.state_loads(text)
    except GeometryError:
        assert code == 3 and err.startswith("error:"), (code, err)
        return
    assert code in (0, 2, 3), (code, err)


def test_unedited_files_parse():
    assert ein.loop_loads(mutate(LOOP_TEXT, [])).size == 12
    assert pl.state_loads(mutate(STATE_TEXT, [])).mesh.vertex_count == 1 + 8 * 24


@pytest.mark.parametrize("parse,text,old,new", [
    (ein.loop_loads, LOOP_TEXT, "samples=12", f"samples={10**12}"),
    (ein.loop_loads, LOOP_TEXT, "n=2", f"n={10**12}"),
    (ein.loop_loads, LOOP_TEXT, "samples=12", "samples=-12"),
    (pl.state_loads, STATE_TEXT, "rings=8", f"rings={10**9}"),
    (pl.state_loads, STATE_TEXT, "sectors=24", f"sectors={10**9}"),
    (pl.state_loads, STATE_TEXT, "n=1", f"n={10**12}"),
    (pl.state_loads, STATE_TEXT, "rings=8 sectors=24", f"rings={-(10**9)} sectors={-(10**9)}"),
], ids=["loop_samples", "loop_n", "loop_negative_samples", "state_rings", "state_sectors",
        "state_n", "state_negative_product"])
def test_huge_header_rejected_before_allocation(parse, text, old, new):
    """The line and field counts are checked against the header before it
    sizes any array, so a huge size costs no more memory than the file."""
    assert old in text
    bad = text.replace(old, new, 1)
    tracemalloc.start()
    try:
        with pytest.raises(GeometryError):
            parse(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * len(bad) + 10**6


@pytest.mark.parametrize("samples", [0, 1, 2])
def test_loop_with_too_few_samples_rejected(samples):
    # an empty body once reached LipschitzLoop and raised IndexError
    lines = LOOP_TEXT.splitlines()
    head = lines[0].replace("samples=12", f"samples={samples}")
    with pytest.raises(ein.InvalidLoopError):
        ein.loop_loads("\n".join([head] + lines[1:1 + samples]) + "\n")


def _with_field(text, line, field, value):
    lines = text.splitlines()
    toks = lines[line].split()
    toks[field] = value
    lines[line] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field", [0, 1])
def test_loop_with_nan_rejected(field):
    # a NaN angle was once dropped as a duplicate sample without an error
    with pytest.raises(ein.InvalidLoopError):
        ein.loop_loads(_with_field(LOOP_TEXT, 3, field, "nan"))


def test_loop_names_first_non_finite_line():
    # body lines count from 0, so text line 3 is sample line 2
    text = _with_field(_with_field(LOOP_TEXT, 7, 1, "inf"), 3, 2, "nan")
    with pytest.raises(ein.InvalidLoopError, match="sample line 2 has a non-finite value"):
        ein.loop_loads(text)


@pytest.mark.parametrize("line,field,value,message", [
    (3, -1, "1", "pinned column"),
    (-1, -1, "0", "pinned column"),
    (3, 0, "1.5", "not on the mesh"),
    (3, 1, "1.5", "not on the mesh"),
    (3, 0, str(10**20), "not on the mesh"),
    (3, 1, "-1", "not on the mesh"),
], ids=["interior_pinned", "rim_unpinned", "ring_1.5", "sector_1.5", "ring_beyond_int64",
        "negative_sector"])
def test_state_with_bad_index_or_pinned_column_rejected(line, field, value, message):
    # 10**20 is beyond int64: converting its token to int64 would raise
    # OverflowError, not GeometryError
    with pytest.raises(GeometryError, match=message):
        pl.state_loads(_with_field(STATE_TEXT, line, field, value))


@pytest.mark.parametrize("parse,text,error", [
    (ein.loop_loads, _with_field(LOOP_TEXT, 3, 1, "1e200"), ein.InvalidLoopError),
    (pl.state_loads, _with_field(STATE_TEXT, 5, 2, "1e200"), GeometryError),
    (pl.state_loads, _with_field(_with_field(STATE_TEXT, 5, 2, "1e200"), 5, 4, "1e200"),
     GeometryError),
], ids=["loop_fiber", "state_coordinate", "state_two_coordinates"])
def test_huge_field_rejected_without_warning(parse, text, error):
    # the squares of a huge coordinate overflow; the parser rejects the file
    # without numpy printing an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            parse(text)


def _loop_gen(run_cli, *args):
    """Run `loop-gen` into a temporary directory; return the exit code and
    stderr."""
    with tempfile.TemporaryDirectory() as d:
        res = run_cli("loop-gen", *args, "--out", "x.loop", cwd=d)
    return res.returncode, res.stderr


@pytest.mark.parametrize("kind,flag,value", [
    ("circle", "--samples", 0), ("c1_wobble", "--samples", 0), ("rigid_arc", "--samples", 0),
    ("crown", "--samples", 0), ("circle", "--samples", -5), ("c1_wobble", "--samples", 2),
    ("c1_wobble", "--n", 0), ("rigid_arc", "--n", -1), ("circle", "--n", 0),
    ("crown", "--n", 0),
])
def test_loop_gen_rejects_degenerate_sizes(run_cli, kind, flag, value):
    code, err = _loop_gen(run_cli, "--kind", kind, flag, value)
    assert code == 3 and err.startswith("error:"), (code, err)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["circle", "c1_wobble", "rigid_arc", "crown"]),
       st.one_of(st.integers(-(10**18), 2), st.integers(cli.MAX_LOOP_SAMPLES + 1, 10**18)),
       st.integers(-(10**6), 3))
def test_loop_gen_out_of_range_samples_exit_three(run_cli, kind, samples, n):
    code, err = _loop_gen(run_cli, "--kind", kind, "--samples", samples, "--n", n)
    assert code == 3 and err.startswith("error:"), (code, err)


def test_loop_gen_sample_cap_checked_before_allocation(run_cli):
    tracemalloc.start()
    try:
        code, err = _loop_gen(run_cli, "--kind", "circle", "--samples", 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("error:")
    assert peak < 10**6
    assert _loop_gen(run_cli, "--kind", "circle", "--samples", cli.MAX_LOOP_SAMPLES // 64)[0] == 0

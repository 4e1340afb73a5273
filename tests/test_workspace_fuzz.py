"""Seeded fuzzing of the workspace boundary.

Whatever a workspace file holds, parse_workspace raises nothing but
WorkspaceError or LatticeError, load_workspace makes of a file what
parse_workspace makes of its text, and ``hilblat report`` ends with exit
code 0, 2 or 3, never with a traceback.  The inputs are arbitrary text,
arbitrary JSON values and workspaces shaped like the real format: Gram
matrices of rank at most 3, small closure caps, and names and references
that are sometimes not strings.  ``derandomize=True`` and no example
database make every run draw the same examples.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hilblat import LatticeError, WorkspaceError, load_workspace, parse_workspace
from hilblat.cli import main

SEEDED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SECTIONS = ("lattices", "vectors", "sublattices", "isometries", "groups")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
small = st.integers(-3, 3)


def mostly(usual, odd):
    """``usual``, or ``odd`` about once in 16 draws: with about ten such sites a
    workspace, half the workspaces stay valid and reach the report."""
    return st.integers(0, 15).flatmap(lambda i: odd if i == 7 else usual)


# A reference is mostly to the drawn lattice "L", and now and then to
# another or an unknown lattice, or to something that is not a name.
references = mostly(
    st.just("L"), st.sampled_from(["M", "U", "DOUADY(1)", "nope"]) | json_values
)


def vectors(rank):
    odd = st.lists(small, max_size=rank + 1) | st.lists(json_values, max_size=2)
    return mostly(st.lists(small, min_size=rank, max_size=rank), odd)


@st.composite
def lattices(draw, rank):
    """A symmetric Gram matrix, with an exceptional class on its last,
    orthogonal coordinate half of the time."""
    entries = {(i, j): draw(small) for i in range(rank) for j in range(i, rank)}
    gram = [[entries[min(i, j), max(i, j)] for j in range(rank)] for i in range(rank)]
    lattice = {"gram": gram}
    if rank and draw(st.booleans()):
        for j in range(rank - 1):
            gram[j][-1] = gram[-1][j] = 0
        gram[-1][-1] = draw(st.sampled_from([-8, -2, 2, 4]))
        e = [0] * (rank - 1) + [draw(st.sampled_from([-2, 1, 2]))]
        lattice["e"] = draw(mostly(st.just(e), vectors(rank)))
    if rank and draw(mostly(st.just(False), st.just(True))):
        gram[0] = draw(st.lists(small, max_size=rank + 1))  # asymmetric or ragged
    return lattice


@st.composite
def workspaces(draw):
    rank = draw(st.integers(0, 3))
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    matrices = st.one_of(
        st.just(identity),
        st.just([[-x for x in row] for row in identity]),
        st.lists(vectors(rank), min_size=rank, max_size=rank),
    )
    isometries = draw(
        st.dictionaries(
            st.sampled_from(["f", "g", "h"]),
            st.fixed_dictionaries({"lattice": references, "matrix": matrices}),
            max_size=3,
        )
    )
    names = st.sampled_from(sorted(isometries) or ["f"])
    group = st.fixed_dictionaries(
        {
            "lattice": references,
            "generators": st.lists(mostly(names, json_values), max_size=3),
            "cap": mostly(st.integers(1, 8), st.integers(-1, 0) | json_values),
        }
    )
    data = {
        "lattices": {
            "L": draw(lattices(rank)),
            "M": draw(mostly(st.sampled_from(["U", "E8_MINUS", "DOUADY(2)"]), json_values)),
        },
        "vectors": draw(
            st.dictionaries(
                st.sampled_from(["v", "w"]),
                st.fixed_dictionaries({"lattice": references, "coords": vectors(rank)}),
                max_size=2,
            )
        ),
        "sublattices": draw(
            st.dictionaries(
                st.sampled_from(["s", "t"]),
                st.fixed_dictionaries(
                    {"lattice": references, "columns": st.lists(vectors(rank), max_size=3)}
                ),
                max_size=2,
            )
        ),
        "isometries": isometries,
        "groups": draw(st.dictionaries(st.sampled_from(["G", "H"]), group, max_size=2)),
    }
    for key in SECTIONS:  # now and then a section is missing or not an object
        data[key] = draw(mostly(st.just(data[key]), st.just({}) | json_values))
    return data


any_workspace = (
    json_values
    | st.dictionaries(
        st.sampled_from(SECTIONS),
        st.dictionaries(st.text(max_size=3), json_values, max_size=2),
        max_size=3,
    )
    | workspaces()
)


@SEEDED
@given(any_workspace)
# a decimal string longer than Python's default cap of 4300 digits on
# int <-> str conversion (an interpreter without the cap parses it)
@example({"lattices": {"L": {"gram": [["7" * 5001]]}}})
def test_parse_raises_only_workspace_or_lattice_errors(data):
    try:
        parse_workspace(json.dumps(data))
    except (WorkspaceError, LatticeError):
        pass


def _outcome(parse, source):
    """The Workspace that ``parse`` builds from ``source``, or the text of
    the WorkspaceError it raises; any other exception propagates."""
    try:
        return parse(source)
    except WorkspaceError as exc:
        return str(exc)


documents = st.builds(json.dumps, any_workspace)
texts = (
    st.text()
    | documents
    | st.tuples(documents, st.floats(0, 1)).map(lambda d: d[0][: int(len(d[0]) * d[1])])
)


@SEEDED
@given(texts)
def test_file_and_text_give_the_same_outcome(text):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        from_file = _outcome(load_workspace, path)
    finally:
        os.unlink(path)
    assert from_file == _outcome(parse_workspace, text)


@settings(SEEDED, max_examples=100)
@given(workspaces())
def test_report_exit_code_is_0_2_or_3(data):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        for extra in ([], ["--json"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = main(["report", "--workspace", path] + extra)
            assert code in (0, 2, 3)
    finally:
        os.unlink(path)

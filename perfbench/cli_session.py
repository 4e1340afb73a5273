"""The ``cli-session`` workload: a fixed script of ``hilblat`` command-line
runs on a workspace file written at set-up.

Interpreter start plus import is most of a typical command, so it sets
the median; the O(bound^2) ``solve-index`` at bound 1000 sets the 90th
percentile.  Each command's output is checked against the oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import sys

import exact as X
import fixed_lattice
import naturality
from tasks import Task, expect

HILBLAT = "import sys; from hilblat.cli import run; run()"  # what the console script does
SOLVE_BLOCKS = ((2, 4), (2, 12), (3, 8), (3, 24), (2, 28))


def _fmt(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def build_script(seed: int, workdir: str):
    """Write the workspace and return [(name, argv, check(exit, stdout))]."""
    rng = random.Random(f"cli-session:{seed}")
    n = rng.choice((2, 3))
    gram = X.douady_gram(n)

    pn, pd2 = rng.choice(naturality.PICARD_BLOCKS)
    lam, mu = rng.choice(naturality.picard_solutions(pn, pd2))
    inv = naturality.picard_involution(pn, pd2, lam, mu)
    qe = -8 * (pn - 1)

    phi = naturality.surface_isometry(rng)
    natural = X.lift(phi)
    moved, moved_d = naturality.moved_isometry(rng, n)
    bad = [list(row) for row in natural]
    bad[rng.randrange(X.K3_RANK)][X.K3_RANK] += 1  # f(delta) gains a surface part
    p, p_inv = fixed_lattice.conjugator(rng, fixed_lattice.CONJUGATING_REFLECTIONS, fixed_lattice.summand_root)
    nik = X.mat_mul(p, X.mat_mul(fixed_lattice.NIKULIN, p_inv))
    for m, g in ((inv, ((pd2, 0), (0, qe))), (natural, gram), (moved, gram), (nik, X.K3_GRAM)):
        expect(X.preserves_form(m, g), "workspace isometry")
    expect(not X.preserves_form(bad, gram), "perturbed matrix")

    # NS = <u, r>: u = (a, b) in one U with a, b > 0 coprime, r an E8(-1) root.
    a, b = rng.choice(((1, 1), (1, 2), (2, 1), (1, 3), (3, 2)))
    u_at = 2 * rng.randrange(3)
    ns = [[0] * X.K3_RANK, [0] * X.K3_RANK]
    ns[0][u_at : u_at + 2] = (a, b)
    ns[1][rng.choice(X.E8_OFFSETS) + rng.randrange(8)] = 1
    ns_gram = X.restricted_gram(X.K3_GRAM, ns)

    workspace = {
        "lattices": {
            "K3": "K3",
            "L": f"DOUADY({n})",
            "quartic": {"gram": [[pd2, 0], [0, qe]], "e": [0, 1]},
        },
        "sublattices": {"ns": {"lattice": "K3", "columns": ns}},
        "isometries": {
            "inv": {"lattice": "quartic", "matrix": inv},
            "lift": {"lattice": "L", "matrix": natural},
            "moved": {"lattice": "L", "matrix": moved},
            "bad": {"lattice": "L", "matrix": bad},
            "nik": {"lattice": "K3", "matrix": nik},
        },
        "groups": {"G": {"lattice": "K3", "generators": ["nik"]}},
    }
    path = os.path.join(workdir, f"workspace-{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workspace, handle)
    ws = ["--workspace", path]

    delta_image = tuple(row[-1] for row in moved)
    solve = [rng.choice(SOLVE_BLOCKS) for _ in range(4)]
    script = [
        ("report", ["report", *ws], _report_text(n, lam, mu, pd2, qe)),
        ("report-json", ["report", "--json", *ws], _report_json(n, lam, pd2, qe, delta_image)),
        ("signature-K3", ["signature", "K3"], _lines(["signature: (3, 0, 19)"])),
        ("signature-L", ["signature", "L", *ws], _lines(["signature: (3, 0, 20)"])),
        ("index-picard", ["index", "quartic", "inv", *ws], _lines([f"lambda = {lam}", f"d = ({mu})"])),
        ("index-moved", ["index", "L", "moved", *ws], _lines(["lambda = -1", f"d = {_fmt(moved_d)}"])),
        (
            "natural-check-lift",
            ["natural-check", "L", "lift", *ws],
            _lines(["NATURAL"] + [f"surface: {_fmt(row)}" for row in phi]),
        ),
        (
            "natural-check-moved",
            ["natural-check", "L", "moved", *ws],
            _lines(["NOT-NATURAL", f"f(delta) = {_fmt(delta_image)}"]),
        ),
        ("isometry-check-lift", ["isometry-check", "L", "lift", *ws], _lines(["ISOMETRY"])),
        ("isometry-check-bad", ["isometry-check", "L", "bad", *ws], _first_line("NOT-ISOMETRY")),
        ("invariant-nikulin", ["invariant", "G", *ws], _nikulin_lines),
        ("classify-ns", ["classify", "K3", "ns", *ws], _lines([
            "type: Hyperbolic", "NS signature: (1, 0, 1)",
            "Tr signature: (2, 0, 18)", "companion pattern: ok",
        ])),
        ("complement-ns", ["complement", "K3", "ns", *ws], _complement(ns, ns_gram)),
    ]
    # Three of the seventeen commands are solve-index at bound 1000, so the
    # 90th percentile falls inside their block rather than at its edge.
    for i, (sn, sd2) in enumerate(solve):
        bound = 300 if i == 0 else 1000
        script.append(
            (f"solve-index-{bound}", ["solve-index", str(sn), str(sd2), str(bound)], _solutions(sn, sd2, bound))
        )
    return script


def _lines(expected):
    def check(stdout):
        expect(stdout.splitlines() == expected, "command output")

    return check


def _first_line(expected):
    def check(stdout):
        expect(stdout.splitlines()[0] == expected, "command output")

    return check


def _nikulin_lines(stdout):
    lines = stdout.splitlines()
    for want in (
        "order: 2", "invariant rank: 14", "invariant gram det: -256",
        "invariant negative definite: no", "coinvariant rank: 8",
        "coinvariant gram det: 256", "coinvariant negative definite: yes",
        "intersection trivial: pass",
    ):
        expect(want in lines, f"invariant output has {want!r}")


def _complement(ns, ns_gram):
    def check(stdout):
        lines = stdout.splitlines()
        expect(lines[0] == "rank: 20", "complement rank")
        basis = [tuple(int(x) for x in line[len("basis: (") : -1].split(", ")) for line in lines[1:]]
        expect(len(basis) == 20, "complement basis size")
        expect(all(X.form(X.K3_GRAM, u, v) == 0 for u in ns for v in basis), "complement is orthogonal")
        comp_det = X.det(X.restricted_gram(X.K3_GRAM, basis))
        expect(abs(comp_det) == abs(X.det(ns_gram)), "|disc| agree in a unimodular lattice")

    return check


def _solutions(n, d2, bound):
    pairs = X.norm_solutions(n, d2, bound)
    expected = [f"n = {n}, d2 = {d2}, bound = {bound}", f"solutions: {len(pairs)}"]
    return _lines(expected + [_fmt(pair) for pair in pairs])


def _report_text(n, lam, mu, d2, qe):
    def check(stdout):
        lines = stdout.splitlines()
        for want in (
            "== lattice K3 ==", "signature: (3, 0, 19)", "signature: (3, 0, 20)",
            f"discriminant: {2 * (n - 1)}", f"q(e) = {-8 * (n - 1)}", f"q(delta) = {-2 * (n - 1)}",
            f"discriminant: {d2 * qe}", f"lambda = {lam}", f"d = ({mu})",
            "NOT-ISOMETRY", "NATURAL", "NOT-NATURAL", "type: Hyperbolic",
            "complement rank: 20", "order: 2", "coinvariant gram det: 256",
        ):
            expect(want in lines, f"report has {want!r}")

    return check


def _report_json(n, lam, d2, qe, delta_image):
    def check(stdout):
        items = {(i["kind"], i["name"]): i for i in json.loads(stdout)["items"]}
        lattice = items[("lattice", "L")]
        expect(lattice["signature"] == [3, 0, 20] and lattice["discriminant"] == 2 * (n - 1), "L")
        expect(lattice["q_delta"] == -2 * (n - 1), "q(delta)")
        expect(items[("lattice", "quartic")]["discriminant"] == d2 * qe, "quartic")
        expect(items[("isometry", "inv")]["lambda"] == str(lam), "lambda of inv")
        expect(items[("isometry", "lift")]["natural"] is True, "lift is natural")
        moved = items[("isometry", "moved")]
        expect(moved["lambda"] == "-1" and moved["image"] == list(delta_image), "moved")
        expect(items[("isometry", "bad")]["is_isometry"] is False, "bad is rejected")
        expect(items[("isometry", "nik")]["is_isometry"] is True, "nik is an isometry")
        group = items[("group", "G")]
        expect(group["order"] == 2 and group["coinvariant"]["gram_det"] == 256, "group G")
        expect(items[("sublattice", "ns")]["type"] == "Hyperbolic", "ns type")

    return check


class ChildRunner:
    """Runs hilblat commands as child processes, one at a time, and keeps
    the largest peak RSS among them."""

    def __init__(self, workdir, env):
        self.env = env
        self.out = os.path.join(workdir, "stdout")
        self.peak_rss_kb = 0

    def __call__(self, args):
        argv = [sys.executable, "-c", HILBLAT, *args]
        out = (os.POSIX_SPAWN_OPEN, 1, self.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=[out])
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # the task's deadline: stop the child, then re-raise
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(self.out, encoding="utf-8") as handle:
            return os.waitstatus_to_exitcode(status), handle.read()


def in_process(hl):
    """Runs hilblat commands through cli.main in this process (traced runs)."""

    def run(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = hl.cli.main(args)
        return code, out.getvalue()

    return run


def build(seed: int, workdir: str, run_command) -> list[Task]:
    """``run_command(argv) -> (exit code, stdout)`` runs one hilblat command."""
    tasks = []
    for name, argv, check_stdout in build_script(seed, workdir):
        def check(out, check_stdout=check_stdout):
            code, stdout = out
            expect(code == 0, f"exit code {code}")
            check_stdout(stdout)

        tasks.append(Task(name, lambda argv=argv: run_command(argv), check))
    return tasks

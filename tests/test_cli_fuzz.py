"""Fuzz of ``cli.main``: whatever the argv, run spec or ``--out`` target, a
run ends in exit 0, 2, 3 or 4 without a traceback.  A failed run leaves the
directory as it was, and a successful one leaves no temporary behind.

Sizes stay cheap (slots <= 300, shots <= 100, qudit n <= 5, mesh rounds
<= 4); "huge" sizes start at 10**15, where a run fails at once instead of
allocating or looping.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qmg import cli
from qmg.mac import POLICY_KINDS

HUGE = st.integers(10**15, 10**30)
JUNK = st.sampled_from(["x", "1.5", "", "1e3", "--bogus", "nan"])


def mostly(valid, odd, one_in=8):
    """Draw from ``odd`` one time in ``one_in``, else from ``valid``."""
    return st.integers(1, one_in).flatmap(lambda k: odd if k == 1 else valid)


def count(valid, *odd):
    """A count token: mostly valid, else huge, negative, out of range or not
    an integer."""
    return mostly(valid.map(str), mostly(st.one_of(st.integers(-3, -1).map(str), JUNK,
                                                   st.sampled_from(odd or ("0",)).map(str)),
                                         HUGE.map(str), one_in=2), one_in=5)


def choice(*values):
    return mostly(st.sampled_from(values), JUNK)


def options(required, optional):
    """argv options in any order: required ones usually present, optional
    ones half the time; a value of "" stands for a bare flag."""
    def pairs(flag, values):
        return values.map(lambda v: [flag, v] if v else [flag])
    chunks = [mostly(pairs(f, v), st.just([])) for f, v in required.items()]
    chunks += [st.one_of(st.just([]), pairs(f, v)) for f, v in optional.items()]
    return st.tuples(*chunks).flatmap(st.permutations).map(lambda cs: [t for c in cs for t in c])


N = count(st.integers(2, 5), 0, 1, 17)
CIRCUIT_N = count(st.sampled_from([2, 4, 8]), 0, 3)
P, REGIME = count(st.integers(0, 12)), choice("enhance-optimum", "avoid-worst")
PHASE = mostly(st.sampled_from([{"--p": P}, {"--regime": REGIME}, {"--p": P, "--regime": REGIME}]),
               st.just({}))

COMMANDS = {
    "probs": ({"--n": N}, {"--format": choice("csv", "json")}),
    "simulate": ({"--n": N, "--shots": count(st.integers(0, 100))},
                 {"--seed": count(st.integers(0, 2**64)), "--engine": choice("qudit", "circuit"),
                  "--format": choice("csv", "json"), "--dump-state": st.just("")}),
    "audit-circuit": ({"--n": CIRCUIT_N}, {"--variant": choice("figure", "corrected")}),
    "export-circuit": ({"--n": CIRCUIT_N}, {"--variant": choice("figure", "corrected")}),
    "mac": ({}, {"--seed": count(st.integers(0, 2**64))}),
}

ODD = st.one_of(st.booleans(), st.text(max_size=4), st.none(), st.integers(-2, 20),
                st.floats(allow_nan=True, allow_infinity=True),
                st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=2), HUGE)
ROUNDS = mostly(st.integers(1, 4), ODD)
POLICIES = mostly(st.lists(st.sampled_from(POLICY_KINDS), min_size=2, max_size=3),
                  st.lists(st.sampled_from(POLICY_KINDS + ("bogus",)), max_size=3))
SPEC = st.integers(2, 6).flatmap(lambda n: st.fixed_dictionaries({
    "n_users": st.just(n),
    "n_channels": mostly(st.just(n), st.integers(2, 6)),
    "primary_activity": st.floats(0, 1),
    "slots": mostly(st.integers(1, 300), HUGE, one_in=5),
    "seed": st.integers(0, 2**64 - 1),
    "policies": POLICIES,
}, optional={
    "topology": choice("star", "mesh-rounds"),
    "mesh_degree": mostly(st.integers(1, n - 1), ODD),
    "mesh_rounds": ROUNDS,
    "tx_cost": mostly(st.floats(0, 5), ODD),
    "arbitration_cost": mostly(st.floats(0, 5), ODD),
}))


@st.composite
def spec_bytes(draw):
    """A run spec: a drawn document with some fields retyped, dropped or
    added, a JSON value that is not an object, or bytes that are not UTF-8
    JSON."""
    kind = draw(mostly(st.just("spec"), st.sampled_from(["not-object", "not-json"])))
    if kind == "not-json":
        return draw(st.sampled_from([b"{", b"\xff\xfe{\x00}\x00", b""]))
    if kind == "not-object":
        return json.dumps(draw(ODD)).encode()
    document = draw(SPEC)
    keys = st.lists(st.sampled_from(sorted(document) + ["bandwidth"]), min_size=1, max_size=2,
                    unique=True)
    for key in draw(mostly(st.just([]), keys)):
        if key in document and draw(st.booleans()):
            del document[key]
        else:
            document[key] = draw(ODD)
    return json.dumps(document).encode()


#: names a run may write, relative to --out "out", each drawn absent, a file or a directory
TARGETS = ("out", "out.json", "out.csv", "out.state.txt")


def snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data(),
       out=mostly(st.just("out"), st.sampled_from(["nodir/out", "afile/out", None])),
       targets=st.tuples(*[mostly(st.sampled_from([None, "file"]), st.just("dir"), one_in=4)]
                         * len(TARGETS)))
def test_cli_main_exits_cleanly(command, data, out, targets):
    required, optional = COMMANDS[command]
    if command != "mac":
        required = {**required, **data.draw(PHASE, label="phase")}
    argv = [command] + data.draw(options(required, optional), label="options")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "afile").write_text("a file, not a directory\n")
        for name, target in zip(TARGETS, targets):
            if target == "file":
                (root / name).write_text(f"earlier {name}\n")
            elif target == "dir":
                (root / name).mkdir()
        if command == "mac":
            (root / "spec.json").write_bytes(data.draw(spec_bytes(), label="spec"))
            argv.insert(1, "spec.json")
        if out is not None:
            argv += ["--out", out]
        before = snapshot(root)
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # relative paths, and mac's default --out, stay in the temporary directory
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        after = snapshot(root)
    assert code in (0, 2, 3, 4), (code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        assert not [name for name in after if name.endswith(".tmp")]
    else:
        assert after == before

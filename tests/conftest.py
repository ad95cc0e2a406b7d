import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cup import cli
from cup import engine as eng
from cup import parser as ps
from cup.formulas import Calculus

CORPUS_DIR = Path(__file__).parent.parent / "src" / "cup" / "corpus"

MEMBER_67 = """
const 0 : i. const nil : i. const scons : i -> i -> i.
const member : i -> i -> o. const eq : i -> i -> o.
member X [Y|T] :- member X [Y|T], eq X Y.
eq X X.
"""

MEMBER_12 = """
const 0 : i. const 1 : i. const nil : i. const scons : i -> i -> i.
const member : i -> i -> o.
member X [X|T].
member X [Y|T] :- member X T.
"""


def _load(name: str):
    return ps.parse_program((CORPUS_DIR / name).read_text())


@pytest.fixture
def fresh_program():
    """Parse a corpus program, or member67, by name, for a test that watches
    or patches `trees`, `engine` or `terms` around a model-side call: the
    session programs keep the universes `gfp_approx` explored for earlier
    tests, so the test would not see that work, and what it explored under
    a patch would outlive it."""
    return lambda name: ps.parse_program(MEMBER_67) if name == "member67" else _load(f"{name}.cup")


@pytest.fixture(scope="session")
def member67_program():
    return ps.parse_program(MEMBER_67)


@pytest.fixture(scope="session")
def member12_program():
    return ps.parse_program(MEMBER_12)


@pytest.fixture(scope="session")
def member_program():
    return _load("member.cup")


@pytest.fixture(scope="session")
def bitstream_program():
    return _load("bitstream.cup")


@pytest.fixture(scope="session")
def from_program():
    return _load("from.cup")


@pytest.fixture(scope="session")
def comember_program():
    return _load("comember.cup")


@pytest.fixture(scope="session")
def fibs_program():
    return _load("fibs.cup")


REGRESSIONS = [
    ("member67", MEMBER_67, "member 0 [0|nil]", Calculus.FOHC),
    ("bitstream", None, "bitstream [0|n_str 0]", Calculus.HOHC),
    ("from", None, "forall x. from x (fr_str x)", Calculus.HOHH),
    ("comember", None, "forall y s. bit y => comember_bit y s", Calculus.FOHH),
]


@pytest.fixture(scope="session")
def regression_proofs(bitstream_program, from_program, comember_program, member67_program):
    """The four regression proofs, found once per session."""
    programs = {
        "member67": member67_program,
        "bitstream": bitstream_program,
        "from": from_program,
        "comember": comember_program,
    }
    out = {}
    for name, _text, goal, calc in REGRESSIONS:
        program = programs[name]
        g = ps.parse_goal(goal, program)
        res = eng.coprove(program, g, eng.SearchConfig(calculus=calc))
        assert res.proved, f"regression proof for {name} not found"
        out[name] = (program, g, calc, res)
    return out


@pytest.fixture(scope="session")
def deep_nat_proof(tmp_path_factory):
    """`cup prove --emit-proof` of `nat` on 180 nested `s` in co-fohc, run
    once per session: a 722-node proof 541 nodes deep.  The program's path,
    the document's path, the exit code and what the subcommand printed."""
    where = tmp_path_factory.mktemp("nat")
    prog, out = where / "nat.cup", where / "deep.json"
    prog.write_text("const 0 : i. const s : i -> i. const nat : i -> o. nat 0. nat (s X) :- nat X.\n")
    goal = "nat " + "(s " * 180 + "0" + ")" * 180
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["prove", "--calculus", "co-fohc", "--program", str(prog), "--goal", goal,
                         "--depth", "5000", "--emit-proof", str(out)])
    return prog, out, code, printed.getvalue()

"""The stream table: the one place that builds a generator, its keys, and
the streams that coincide under them."""

import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import fedsim
from fedsim.streams import STREAMS, stream

SRC = Path(fedsim.__file__).parent


def dotted(node) -> str:
    """``a.b.c`` of an attribute chain over a name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def numpy_random_uses(tree: ast.AST) -> list[int]:
    """Lines that call into ``numpy.random`` or import from it; a type
    annotation names ``np.random.Generator`` without calling anything."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            names = [dotted(node.func)]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}."]
        elif isinstance(node, ast.Import):
            names = [f"{alias.name}." for alias in node.names]
        else:
            continue
        if any(name.startswith(("np.random.", "numpy.random.")) for name in names):
            lines.append(node.lineno)
    return lines


def test_only_the_stream_table_builds_generators():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "streams.py" and (lines := numpy_random_uses(ast.parse(path.read_text())))
    }
    assert found == {}
    assert numpy_random_uses(ast.parse((SRC / "streams.py").read_text()))


def test_the_scan_sees_calls_and_imports_but_not_annotations():
    code = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "def f(rng: np.random.Generator) -> np.random.Generator:\n"
        "    return np.random.default_rng(0)\n"
    )
    assert sorted(numpy_random_uses(ast.parse(code))) == [2, 4]


def test_the_table_pins_each_streams_key():
    assert STREAMS == {
        "data": (), "partition": (), "init": (), "test_split": (),
        "sampling": (0,), "client": (1,), "server_pool": (2,), "server": (3,), "eval": (4,),
        "centralized": (9,),
    }


@pytest.mark.parametrize("seed", [0, 1, 3, 7, 100, 2**32 + 5])
def test_an_empty_key_is_the_bare_seed(seed):
    want = np.random.default_rng(seed)
    for name in ("data", "partition", "init"):
        got = stream(seed, name)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(8).tobytes() == np.random.default_rng(seed).random(8).tobytes()


def test_ids_follow_the_prefix():
    want = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(1, 3, 2, 1)))
    assert stream(5, "client", 3, 2, 1).bit_generator.state == want.bit_generator.state
    with pytest.raises(KeyError):
        stream(5, "no-such-stream")


def test_todays_coincidences_and_no_others():
    # every coordinate a run draws from, each stream with the ids it takes,
    # over 10 clients and 3 rounds
    clients, rounds = range(10), range(1, 4)
    coords = [("data",), ("partition",), ("init",), ("server_pool",), ("centralized",)]
    coords += [("test_split", c) for c in clients] + [("eval", c) for c in clients]
    coords += [("sampling", k) for k in rounds] + [("server", k) for k in rounds]
    coords += [("client", k, c, *t) for k in rounds for c in clients for t in ((), (1,))]
    state = {co: str(stream(11, *co).bit_generator.state) for co in coords}
    same = {(a, b) for a, b in combinations(coords, 2) if state[a] == state[b]}
    # ROADMAP item 22 separates these streams; this set then becomes empty
    assert same == {
        (("data",), ("partition",)),
        (("data",), ("init",)),
        (("partition",), ("init",)),
        (("server_pool",), ("test_split", 2)),
        (("centralized",), ("test_split", 9)),
    }

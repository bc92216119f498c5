"""No input ends in a traceback.

``cli.main`` runs in-process on seeded random inputs in all four formats:
well-formed ones, non-canonical cotree text, copies with characters deleted
or duplicated, and deeply nested ones; the text formats also come through
``@PATH``. Every call must return 0, 1 or 2 and raise nothing.
"""

import random

import pytest

from cographctl import random_cotree, random_threshold_sequence, write_edge_list
from cographctl.cli import main

from helpers import nested_text, random_graph, scrambled, to_nested

COMMANDS = [
    ["recognize"],
    ["spectrum"],
    ["spectrum", "--modal"],
    ["partition"],
    ["partition", "--degree"],
    ["leaders"],
    ["leaders", "--all", "--tie", "highest"],
    ["verify", "--set"],
    ["verify", "--cross-check", "--set"],
    ["oracle"],
]

DEEP = [
    ("--expr", "(" * 500 + "." + ")" * 500),
    ("--expr", ".*(.+" * 100 + "." + ")" * 100),
    ("--cotree", "1(" * 300 + "1,2" + ")" * 300),
    ("--cotree", "0(1(" * 150 + "2,1" + "))" * 150),
    ("--cotree", "1(0(" * 100 + "1,2" + "),3)" * 100),
    ("--threshold", "0" + "10" * 150 + "1"),
]


def random_expr(n: int, rng: random.Random) -> str:
    """Expression text on n vertices, fully parenthesized."""
    if n == 1:
        return "."
    if rng.random() < 0.2:
        return str(n)
    k = rng.randint(2, min(n, 3))
    cuts = sorted(rng.sample(range(1, n), k - 1))
    parts = [random_expr(b - a, rng) for a, b in zip([0, *cuts], [*cuts, n])]
    return "(" + rng.choice("+*").join(parts) + ")"


def mutated(text: str, rng: random.Random) -> str:
    """The text with one to three characters deleted or duplicated."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        if not chars:
            break
        i = rng.randrange(len(chars))
        if rng.random() < 0.5:
            del chars[i]
        else:
            chars.insert(i, chars[i])
    return "".join(chars)


def control_set(n: int, rng: random.Random) -> str:
    if rng.random() < 0.2:
        return rng.choice(["0", "x", "1,,2", "1,1", str(n + 1), ""])
    return ",".join(map(str, sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))))


def inputs(rng: random.Random, tmp_path):
    """(flag, value, n) triples: random inputs of each format, each followed
    by a mutated copy."""
    for i in range(25):
        n = rng.randint(1, 6)
        tree = random_cotree(n, rng, root_label=1 if n == 1 else rng.randint(0, 1))
        graph = random_graph(n, rng, rng.random())
        texts = [
            ("--expr", random_expr(n, rng)),
            ("--cotree", nested_text(scrambled(to_nested(tree), rng))),
            ("--threshold", random_threshold_sequence(n, rng)),
            ("--edges", write_edge_list(graph)),
        ]
        for flag, text in texts:
            for j, value in enumerate((text, mutated(text, rng))):
                if flag == "--edges":
                    path = tmp_path / f"g{i}-{j}.txt"
                    path.write_text(value, encoding="utf-8")
                    value = str(path)
                yield flag, value, n


def run(capsys, argv):
    try:
        code = main(argv)
    except Exception as exc:  # report the input that escaped main
        pytest.fail(f"{argv!r} raised {exc!r}")
    _, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err


def with_set(command: list[str], n: int, rng: random.Random) -> list[str]:
    return command + [control_set(n, rng)] if command[-1] == "--set" else command


def test_no_input_gives_a_traceback(capsys, tmp_path):
    rng = random.Random(8128)
    for flag, value, n in inputs(rng, tmp_path):
        for command in rng.sample(COMMANDS, 3):
            run(capsys, [*with_set(command, n, rng), flag, value, "--json"])
    for flag, value in DEEP:
        for text in (value, mutated(value, rng)):
            for command in COMMANDS:
                run(capsys, [*with_set(command, 3, rng), flag, text])


def test_at_values_give_no_traceback(capsys, tmp_path):
    """The text flags read from files with @PATH: the inputs above, each
    also as a file, and values naming a missing file, a directory, bytes
    that are not UTF-8, no path at all, or stdin (@-), which tests cannot
    read."""
    rng = random.Random(4096)
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"\xff(.+.)")
    odd = ["@", "@@", "@-", f"@{tmp_path}", f"@{tmp_path / 'missing.txt'}", f"@{latin1}"]
    for i, (flag, value, n) in enumerate(inputs(rng, tmp_path)):
        if flag == "--edges":
            continue
        path = tmp_path / f"text{i}.txt"
        path.write_text(value, encoding="utf-8")
        for text in (f"@{path}", rng.choice(odd)):
            for command in rng.sample(COMMANDS, 2):
                run(capsys, [*with_set(command, n, rng), flag, text, "--json"])

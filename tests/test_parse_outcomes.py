"""Every outcome of the two tree grammars on malformed text, pinned.

``parse_outcomes.json`` holds about 2,000 ``--expr`` and ``--cotree`` texts:
seeded well-formed ones with whitespace and line breaks scattered through
them, each copied with one to three characters deleted or duplicated by
``test_fuzz.mutated``. Beside each text it stores what the parser at the
commit named under ``recorded_at`` made of it: the canonical cotree text, or
the ``ParseError`` message with its line and column. The test only replays
them; ``python tests/test_parse_outcomes.py COMMIT``, with the package of
that commit on the path, prints a new recording.
"""

import json
import random
from pathlib import Path

from cographctl import ParseError, parse_cotree, parse_expr, random_cotree, serialize_cotree

from helpers import nested_text, scrambled, to_nested
from test_fuzz import mutated, random_expr

FIXTURE = Path(__file__).with_name("parse_outcomes.json")
PARSERS = {"--expr": parse_expr, "--cotree": parse_cotree}


def outcome(flag: str, text: str) -> list:
    try:
        return ["cotree", serialize_cotree(PARSERS[flag](text))]
    except ParseError as exc:
        return ["error", str(exc), exc.line, exc.col]


def spaced(text: str, rng: random.Random) -> str:
    """The text with a few spaces, tabs and line breaks between characters."""
    chars = list(text)
    for _ in range(rng.randint(0, 4)):
        chars.insert(rng.randint(0, len(chars)), rng.choice([" ", "\n", "\t", "\n\n", " \n "]))
    return "".join(chars)


# errors the mutations seldom reach: a bad character, the end of the text
# where a factor or node is due, a number too long for int()
EDGE_CASES = [
    ("--expr", text) for text in ["", " \n ", "(.+", ".*", "(.+.)\n*x", "((.)", "(.))", "0",
                                  ".+0", "\n\n  +.", "()", "1" + "0" * 5000, ".*\n" + "9" * 5000]
] + [
    ("--cotree", text) for text in ["", "  ", "1(", "1(1,", "1(1,2", "1(1,2))", "2(1,2)", "0",
                                    "1(1 2)", "1(1,,2)", "(1,2)", "1(1,2),3", "1(1,1)", "1(1,3)",
                                    "x", "1(1,2)\n\n x", "9" * 5000, "1(\n" + "9" * 5000 + ",1)"]
]


def corpus(seed: int = 2121):
    """(flag, text) pairs: the edge cases above, then two mutated copies of
    each of 500 expressions and 500 cotree texts on 1 to 12 vertices."""
    yield from EDGE_CASES
    rng = random.Random(seed)
    for _ in range(500):
        n = rng.randint(1, 12)
        tree = random_cotree(n, rng, root_label=1 if n == 1 else rng.randint(0, 1))
        for flag, text in (("--expr", random_expr(n, rng)),
                           ("--cotree", nested_text(scrambled(to_nested(tree), rng)))):
            text = spaced(text, rng)
            for _ in range(2):
                yield flag, mutated(text, rng)


def test_parse_outcomes_match_the_recording():
    cases = json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]
    assert len(cases) >= 2000
    assert {flag for flag, _, _ in cases} == set(PARSERS)
    assert sum(expected[0] == "error" for _, _, expected in cases) > 1000
    mismatches = [(flag, text) for flag, text, expected in cases
                  if outcome(flag, text) != expected]
    assert not mismatches, f"{len(mismatches)} outcomes differ, first: {mismatches[0]}"


if __name__ == "__main__":
    import sys

    cases = [[flag, text, outcome(flag, text)] for flag, text in corpus()]
    print('{"recorded_at": ' + json.dumps(sys.argv[1]) + ',\n "cases": [\n  '
          + ",\n  ".join(json.dumps(case, ensure_ascii=False) for case in cases) + "\n]}")

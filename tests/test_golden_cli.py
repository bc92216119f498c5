"""Byte-for-byte CLI output against answers recorded before the cotree arena.

``golden_cli.json`` holds, for every command and flag combination on a corpus
drawn from ``helpers`` (cotree, expression, threshold and edge-list inputs,
``--json`` and text), the exit code, stdout and stderr that the package gave
at the commit named under ``recorded_at``. This test only replays them; it
never writes the file. An edge-list case stores the file's text in place of
its path.
"""

import json
from pathlib import Path

from cographctl.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")


def test_cli_output_matches_golden(capsys, tmp_path):
    cases = json.loads(GOLDEN.read_text())["cases"]
    edge_file = tmp_path / "graph.txt"
    mismatches = []
    for case in cases:
        argv = list(case["argv"])
        if "--edges" in argv:
            at = argv.index("--edges") + 1
            edge_file.write_text(argv[at])
            argv[at] = str(edge_file)
        code = main(argv)
        out, err = capsys.readouterr()
        if (code, out, err) != (case["code"], case["stdout"], case["stderr"]):
            mismatches.append(case["argv"])
    assert len(cases) > 900
    assert not mismatches, f"{len(mismatches)} cases differ, first: {mismatches[0]}"

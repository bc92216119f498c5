"""The public surface: ``cographctl.__all__`` is exactly what README documents,
README names every public attribute of ``CoTree`` and ``Graph``, and README's
library example gives the values its comments state."""

import ast
import re
from pathlib import Path

import cographctl

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_names() -> set[str]:
    """Backquoted names in README's Library section, above its example code."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return set(re.findall(r"`(\w+)`", section.split("```", 1)[0]))


def test_exports_are_the_documented_surface():
    names = documented_names()
    assert len(cographctl.__all__) == len(set(cographctl.__all__))
    assert set(cographctl.__all__) == names
    for name in names:
        assert getattr(cographctl, name).__module__.startswith("cographctl.")
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    named = set(re.findall(r"`(\w+)`", section))  # the Notes included
    for cls in (cographctl.CoTree, cographctl.Graph):
        assert {name for name in dir(cls) if not name.startswith("_")} <= named, cls


def test_readme_library_example_gives_its_commented_values():
    """Runs the example and checks each expression line against the value
    its comment starts with (the comment's prose after ", " is skipped)."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        line = block.splitlines()[stmt.lineno - 1]
        comment = line.split("#", 1)[1].strip()
        stated = ast.literal_eval(re.match(r"(.*?)(, [a-z].*)?$", comment).group(1))
        assert eval(code, namespace) == stated, code
        checked.append(stated)
    assert checked == [
        ((0, 1), (2, 2), (3, 1), (5, 1)),
        ((1, 2), (3, 4, 5)),
        3,
        [(1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5)],
        True,
        5,
        5,
    ]

"""The public surface: ``cographctl.__all__`` is exactly what README documents."""

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

"""The command-line grammar that ``build_parser`` declares, pinned.

``cli_grammar.json`` holds what the parser at the commit named under
``recorded_at`` declared: its prog and description, and per subcommand its
name, help and prog, and per action in order the option strings, dest,
default, const, choices, required, metavar, help, nargs and the name of its
``type``. It holds no formatted help text, so it reads the same on every
Python the package supports. The test only replays it; ``python
tests/test_cli_grammar.py COMMIT``, with the package of that commit on the
path, prints a new recording.
"""

import argparse
import json
from pathlib import Path

from cographctl.cli import build_parser

FIXTURE = Path(__file__).with_name("cli_grammar.json")


def action_record(action: argparse.Action) -> dict:
    choices = action.choices
    return {"option_strings": action.option_strings, "dest": action.dest,
            "default": action.default, "const": action.const,
            "choices": None if choices is None else list(choices),  # a subparser map's names
            "required": action.required, "metavar": action.metavar, "help": action.help,
            "nargs": action.nargs, "type": action.type and action.type.__name__}


def grammar(parser: argparse.ArgumentParser) -> dict:
    """The parser's declarations as plain JSON values."""
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {"prog": parser.prog, "description": parser.description,
            "actions": [action_record(a) for a in parser._actions],
            "commands": [{"name": name, "help": helps[name], "prog": p.prog,
                          "actions": [action_record(a) for a in p._actions]}
                         for name, p in sub.choices.items()]}


def test_parser_declares_the_recorded_grammar():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(recorded["commands"]) == 7
    assert grammar(build_parser()) == {k: v for k, v in recorded.items() if k != "recorded_at"}


if __name__ == "__main__":
    import sys

    def rows(actions):  # one action to a line
        return "[\n" + ",\n".join("    " + json.dumps(a) for a in actions) + "]"

    declared = grammar(build_parser())
    commands = [json.dumps({k: v for k, v in c.items() if k != "actions"})[:-1]
                + ', "actions": ' + rows(c["actions"]) + "}" for c in declared["commands"]]
    print(f'{{"recorded_at": {json.dumps(sys.argv[1])},\n'
          f' "prog": {json.dumps(declared["prog"])},\n'
          f' "description": {json.dumps(declared["description"])},\n'
          f' "actions": {rows(declared["actions"])},\n'
          ' "commands": [\n  ' + ",\n  ".join(commands) + "]}")

"""Pin the command-line surface: every parser's options, defaults, choices
and help strings.

The record leaves out argparse's text layout, which differs between Python
versions; it holds only what ``build_parser`` declares.

To re-record after a deliberate change to the options::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
import os

from torsioncert import cli

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "cli_surface.json")


def _action(action):
    kind = getattr(action.type, "__name__", action.type)
    return {"option_strings": list(action.option_strings),
            "dest": action.dest, "default": action.default,
            "choices": action.choices, "help": action.help,
            "nargs": action.nargs, "required": action.required,
            "type": kind}


def surface():
    """Each parser's declared actions, keyed by its command name (the
    top-level parser under ``""``)."""
    top = cli.build_parser()
    parsers = {"": top}
    out = {}
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.update(action.choices)
            out["commands"] = {a.dest: a.help
                               for a in action._choices_actions}
    for name, parser in parsers.items():
        out[name] = {"description": parser.description,
                     "actions": [_action(a) for a in parser._actions
                                 if not isinstance(
                                     a, argparse._SubParsersAction)]}
    return out


def test_cli_surface_matches_fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        assert surface() == json.load(fh)


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(surface(), fh, indent=1, sort_keys=True)
        fh.write("\n")

"""README's examples against the code: the documented study config must
load, every documented command line must parse and every command must have
one, so that an option the code drops cannot stay documented and a command
cannot be added or renamed without its line."""

import argparse
import json
import os
import re
import shlex

from steklov_lab import cli, study

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def fenced_blocks(lang):
    with open(README, "r", encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def test_readme_study_config_loads():
    blocks = fenced_blocks("json")
    assert len(blocks) == 1
    study.config_from_dict(json.loads(blocks[0]))


def subcommands(parser):
    action, = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_command_lines_parse():
    lines = [shlex.split(ln)[1:] for block in fenced_blocks("")
             for ln in block.splitlines() if ln.startswith("steklov-lab ")]
    parser = cli.build_parser()
    # every subcommand, and each solve problem, has its README line
    commands = subcommands(parser)
    assert set(commands) <= {args[0] for args in lines}
    assert set(subcommands(commands["solve"])) <= {
        args[1] for args in lines if args[0] == "solve"}
    for args in lines:
        parser.parse_args(args)    # exits 2 on a bad line

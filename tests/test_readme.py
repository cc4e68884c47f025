"""README's examples against the code: the documented study config must
load and every documented command line must parse, so that an option the
code drops cannot stay documented."""

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


def test_readme_command_lines_parse():
    lines = [ln for block in fenced_blocks("")
             for ln in block.splitlines() if ln.startswith("steklov-lab ")]
    commands = {shlex.split(ln)[1] for ln in lines}
    assert {"oracle", "solve", "mesh", "cell", "study"} <= commands
    parser = cli.build_parser()
    for ln in lines:
        parser.parse_args(shlex.split(ln)[1:])    # exits 2 on a bad line

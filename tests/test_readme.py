"""README.md's library code runs: its quickstart block, and every
``from eblp... import`` it shows, so a documented name that the package no
longer provides fails here.  Its ``Flags:`` line names exactly the CLI's
options."""

import re
from pathlib import Path

import numpy as np

from eblp.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_quickstart_runs():
    section = README.split("## Library quickstart", 1)[1]
    scope = {}
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), scope)
    n, p, r = scope["n"], scope["p"], scope["r"]
    assert scope["x_hat"].shape == (n, p)
    assert scope["x0_hat"].shape == (p,) and np.isfinite(scope["x0_hat"]).all()
    assert scope["model"].estimates.supercritical.tolist() == [True] * r


def test_documented_imports_resolve():
    imports = re.findall(r"from eblp[\w.]* import [\w, ]*\w", README)
    assert len(imports) >= 3
    for line in imports:
        exec(line, {})


def test_flags_line_names_the_parsers_options():
    line = re.search(r"^Flags: (.*?)\.$", README, re.M | re.S).group(1)
    documented = set(re.findall(r"--[\w-]+", line))
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    options = {option for command in commands.values() for action in command._actions
               for option in action.option_strings if option not in ("-h", "--help")}
    assert documented == options

"""README.md's library code runs: its quickstart block, and every
``from eblp... import`` it shows, so a documented name that the package no
longer provides fails here."""

import re
from pathlib import Path

import numpy as np

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

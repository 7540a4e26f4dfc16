"""Smoke test of the two scripts under scripts/: each runs to completion on a
small input and prints its summary line."""

from __future__ import annotations

import os
import runpy
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def run_script(monkeypatch, name, *args):
    path = os.path.join(SCRIPTS, name)
    monkeypatch.setattr(sys, "argv", [path, *args])
    runpy.run_path(path, run_name="__main__")


def test_scripts_run(capsys, monkeypatch):
    run_script(monkeypatch, "semigroup_atlas.py", "--max-weight", "4")
    assert "10 valid pairs, 6 non-symmetric" in capsys.readouterr().out

    run_script(monkeypatch, "inversion_sweep.py", "--n-max", "1", "--precision", "20")
    out = capsys.readouterr().out
    assert "all divisor relations landed on the period lattice" in out

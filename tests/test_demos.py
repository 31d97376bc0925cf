"""Each demo script, and the README's library tour, runs to completion
against the current public API; the README's series recipe prints the
verdict's series as the standard library's ``csv.writer`` writes it."""

from __future__ import annotations

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from dataclasses import fields
from operator import itemgetter
from pathlib import Path

import pytest

from orlicz_dynamics.cli import main
from orlicz_dynamics.criteria import SeriesPoint

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


# Weights past the float range: a series of inf and nan.
OVERFLOW = {
    "group": {"kind": "Z"},
    "a": [1],
    "weight": {"family": "two_sided_step", "c_neg": 1e200, "c_pos": 1e-200},
    "young": {"family": "power", "p": 2.0},
    "K": {"box": [[-2, 2]]},
    "property": "chaotic",
    "N_max": 8,
    "L_max": 4,
}


@pytest.mark.parametrize("config", ["z_shift_chaotic.json", "heisenberg_paper.json", "overflow"])
def test_readme_series_recipe_prints_the_series_csv(capsys, tmp_path, config):
    readme = (ROOT / "README.md").read_text()
    recipe = next(line for line in readme.splitlines() if '["verdict"]["series"]' in line)
    argv = shlex.split(recipe)
    assert argv[:2] == ["python3", "-c"] and argv[3:] == ["<", "report.json"]
    path = ROOT / "configs" / config
    if config == "overflow":
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(OVERFLOW))
    report = tmp_path / "report.json"
    main(["check", "--config", str(path), "--out", str(report)])
    capsys.readouterr()
    with report.open() as stdin:
        printed = subprocess.run([sys.executable, "-c", argv[2]], stdin=stdin, capture_output=True, check=True)
    header = [f.name for f in fields(SeriesPoint)]
    series = json.loads(report.read_text())["results"]["verdict"]["series"]
    expected = io.StringIO()
    csv.writer(expected).writerows([header, *map(itemgetter(*header), series)])
    assert printed.stdout == expected.getvalue().encode()
    assert (b",inf," in printed.stdout) == (config == "overflow")

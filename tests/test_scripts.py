"""The runnable scripts the README points to still run on the library.

No other test imports them, so each is loaded from its file and its
``main`` run with small arguments.
"""

import importlib.util
import pathlib

import pytest

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_script_{name}",
                                                  _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,rows", [
    ("torus_race", ["--side", "4", "--max-iters", "10"],
     ["planned subset", "naive sync", "fastest alone"]),
    ("cluster_regimes", ["--workers", "20", "--clusters", "4",
                         "--b-slow", "inf", "0.1", "--iters", "2"],
     ["     inf           20", "     0.1            5"]),
])
def test_script_prints_its_table(capsys, name, argv, rows):
    assert _load(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for row in rows:
        assert any(line.startswith(row) for line in lines), (row, lines)

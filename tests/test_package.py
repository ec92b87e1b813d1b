"""The package namespace: names resolve lazily, and the pure-Python modules run without numpy."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sixradii


def _fresh_stdout(probe: str) -> str:
    """What ``python -c probe`` prints in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(sixradii.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_the_exact_path_loads_no_numpy():
    # contfrac, the parameter objects and config, and the report writers are
    # pure Python; the package __init__ must not pull numpy in for them
    probe = ("import sys, sixradii, sixradii.contfrac as c, sixradii.config as config, "
             "sixradii.reports as reports, sixradii.svgplot; "
             "c.cf_expand(c.Fraction(111, 106)); c.convergent([1, 21, 5]); "
             "c.euclid_quotients(355, 113); "
             "sixradii.TrialConfig(); sixradii.StoppingCriteria(); "
             "cfg = config.resolve({}, {'radius': 300.0}); config.digest(cfg); "
             "reports.provenance_payload('trial', cfg, ('radius', 'seed'), {}, {}); "
             "print([m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')])")
    assert _fresh_stdout(probe) == "[]\n"


def test_the_continued_fraction_path_loads_no_dataclasses_and_no_numpy():
    # CFExpansion is a NamedTuple: a dataclass would load dataclasses, and with
    # it inspect, ast, dis and tokenize, into every process that expands a value
    probe = ("import sys, sixradii.contfrac as c; "
             "c.cf_expand(c.Fraction(111, 106)); c.convergent([1, 21, 5]); "
             "c.euclid_quotients(355, 113); "
             "print([m for m in sys.modules if m in ('dataclasses', 'numpy') "
             "or m.startswith('numpy.')])")
    assert _fresh_stdout(probe) == "[]\n"


@pytest.mark.parametrize("name", sixradii.__all__)
def test_every_public_name_is_its_submodules_object(name):
    value = getattr(sixradii, name)
    assert value.__name__ == name and value.__module__.startswith("sixradii.")
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_lists_every_public_name():
    assert set(sixradii.__all__) <= set(dir(sixradii))
    assert "__version__" in dir(sixradii)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sixradii.no_such_name
    assert not hasattr(sixradii, "no_such_name")


def test_no_module_imports_a_name_it_never_uses():
    # a helper moved between modules tends to leave its imports behind; an
    # import kept for its side effect is marked "# noqa" on its line
    unused = []
    for path in sorted(Path(sixradii.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa" in text.splitlines()[node.lineno - 1]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_both_ways_of_starting_the_program_go_through_entry():
    # cli.entry freezes the heap before the process exits; the console script
    # and ``python -m sixradii.cli`` must both reach it
    tomllib = pytest.importorskip("tomllib")
    package = Path(sixradii.__file__).parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"sixradii": "sixradii.cli:entry"}
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    (guard,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    entry()"

"""``import tapp`` loads the operation path only.

The oracle's four names are exported from ``tapp`` but resolve on first
read (PEP 562), so a program that only runs operations never loads
``oracle.py``, nor ``fractions``, which the oracle imports where it
sums exactly.  The first two tests run in a fresh interpreter, as this
process has loaded the oracle already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tapp
from tapp import oracle

ORACLE_NAMES = ("DenseTensor", "densify", "oracle_contract", "ordered_contract")


def _run_fresh(script: str) -> None:
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_import_tapp_loads_neither_the_oracle_nor_fractions():
    _run_fresh(
        "import sys\n"
        "import tapp\n"
        "assert 'tapp.oracle' not in sys.modules, 'oracle'\n"
        "assert 'fractions' not in sys.modules, 'fractions'\n"
        "import tapp.cli\n"
        "assert 'fractions' not in sys.modules, 'fractions after the CLI'\n"
    )


def test_the_first_read_of_an_oracle_name_loads_all_four():
    _run_fresh(
        "import sys\n"
        "import tapp\n"
        "from tapp import ordered_contract\n"
        "oracle = sys.modules['tapp.oracle']\n"
        "assert ordered_contract is oracle.ordered_contract\n"
        f"for name in {ORACLE_NAMES!r}:\n"
        "    assert vars(tapp)[name] is getattr(oracle, name), name\n"
    )


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_each_oracle_name_is_the_oracles_own(name):
    assert getattr(tapp, name) is getattr(oracle, name)
    assert name in dir(tapp)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tapp.no_such_name


def test_star_import_exports_every_public_name():
    # __all__ lists each public name the package binds, and the oracle's.
    public = {
        name
        for name, value in vars(tapp).items()
        if not name.startswith("_") and type(value) is not type(tapp)
    }
    assert set(tapp.__all__) == public | set(ORACLE_NAMES)
    namespace = {}
    exec("from tapp import *", namespace)
    assert {n: namespace[n] for n in ORACLE_NAMES} == {n: vars(oracle)[n] for n in ORACLE_NAMES}

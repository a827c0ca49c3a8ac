"""The oracle and the CLI's case contract stay independent of the engine.

Agreement between the engine and the oracle is evidence only while the
two paths share no code, so this reads the imports of ``oracle.py`` and
``cli.py`` and pins what each takes from the rest of the package.  It
also pins that ``__init__.py`` leaves the oracle to load on first use.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "tapp"


def _package_imports(name: str) -> dict[str, set[str]]:
    """Module name -> names imported from it, for each import of ``tapp``
    modules in ``name``; ``{"*"}`` for a whole-module import."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    imports: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("tapp"):
                continue  # the standard library or numpy
            module = (node.module or "").removeprefix("tapp").lstrip(".")
            if module:
                imports.setdefault(module, set()).update(a.name for a in node.names)
            else:  # from . import engine
                for alias in node.names:
                    imports.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tapp."):
                    imports.setdefault(alias.name.removeprefix("tapp."), set()).add("*")
    return imports


@pytest.mark.parametrize("name", ["oracle.py", "cli.py"])
def test_oracle_and_cli_do_not_import_the_engine(name):
    assert "engine" not in _package_imports(name)


def test_oracle_imports_only_core_errors_and_label_spec():
    imports = _package_imports("oracle.py")
    assert set(imports) <= {"core", "errors", "labels"}
    assert imports.get("labels", set()) <= {"LabelSpec"}


def test_cli_takes_only_label_spec_and_parse_einsum_from_labels():
    assert _package_imports("cli.py")["labels"] <= {"LabelSpec", "parse_einsum"}


def test_cli_imports_no_private_name_from_api_or_core():
    # The conformance tool certifies the library through its public
    # interface: a failed create's reason comes from the handle, not from
    # re-planning it through the API's internals.
    imports = _package_imports("cli.py")
    private = {m: {n for n in imports.get(m, ()) if n.startswith("_")} for m in ("api", "core")}
    assert private == {"api": set(), "core": set()}


def test_init_imports_nothing_from_the_oracle_at_import():
    # `import tapp` leaves oracle.py unloaded; the package's __getattr__
    # imports it on the first read of one of its names.
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    run_at_import, pending = [], list(tree.body)
    while pending:  # every node but those inside a function body
        node = pending.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            run_at_import.append(node)
            pending.extend(ast.iter_child_nodes(node))
    imported = [
        name
        for node in run_at_import
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]
    ]
    assert imported and not [n for n in imported if n.split(".")[-1] == "oracle"]

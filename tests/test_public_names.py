"""Every public name of the package has a reader besides its own unit tests.

A public top-level function or class of ``src/photonlat`` (outside
``__init__.py``) must be referenced from code elsewhere: from another
function of its module or from another module of the package, from
``perfbench/``, or from ``tests/test_acceptance.py``. A name spelled in a
string of layertrace.py's ``TRACED`` table counts, because the tracer
looks it up by name. Imports, docstrings and the unit tests do not count,
so a helper that only its tests keep alive fails here.
"""

import ast
from pathlib import Path

import photonlat

SRC = Path(photonlat.__file__).resolve().parent
REPO = SRC.parents[1]
READERS = [*sorted((REPO / "perfbench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]


def _reads(path) -> list:
    """(top-level definition name or None, names read) per top-level
    statement of a file: every name and attribute its code reads."""
    return [(getattr(node, "name", None),
             {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))})
            for node in ast.parse(path.read_text()).body]


def _traced() -> set:
    """The function names of layertrace.py's ``TRACED`` table."""
    tree = ast.parse((REPO / "perfbench" / "layertrace.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return {function for _, function in ast.literal_eval(table)}


def test_every_public_name_has_a_reader():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    reads = {path: _reads(path) for path in [*modules, *READERS]}
    traced = _traced()
    unread = []
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_") or node.name in traced:
                continue
            # its own definition does not count, every other statement does
            if not any(node.name in names for other, statements in reads.items()
                       for defined, names in statements
                       if not (other == path and defined == node.name)):
                unread.append(f"{path.stem}.{node.name}")
    assert unread == [], f"read only by their unit tests: delete or make private {unread}"

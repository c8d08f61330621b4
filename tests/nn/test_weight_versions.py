"""Every in-place write to ``.data`` under ``src/`` bumps a version.

:func:`repro.serve.model_fingerprint` reuses its digest while each
parameter's array identity and ``version`` are unchanged, so an
in-place write without ``version += 1`` would let the serving cache
return hidden states computed under the old weights.  This test finds
every in-place site statically and fails on one whose function does not
bump.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent

#: The writers known at the time of writing; the scan must find them
#: all, or it has stopped seeing what it is meant to check.
KNOWN_WRITERS = {
    ("nn/optim.py", "SGD.step"),
    ("nn/optim.py", "Adam.step"),
    ("nn/module.py", "Module.load_state_dict"),
    ("tasks/common.py", "_restore_snapshot"),
    ("parallel/engine.py", "DataParallelEngine._sync"),
}


def _is_data(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _writes_data_in_place(node: ast.AST) -> bool:
    """``x.data[...] = v``, ``x.data[...] op= v`` or ``x.data op= v``."""
    if isinstance(node, ast.AugAssign):
        target = node.target
        return _is_data(target) or (isinstance(target, ast.Subscript)
                                    and _is_data(target.value))
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return any(isinstance(t, ast.Subscript) and _is_data(t.value)
                   for t in targets)
    return False


def _bumps_version(function: ast.AST) -> bool:
    return any(isinstance(node, ast.AugAssign)
               and isinstance(node.op, ast.Add)
               and isinstance(node.target, ast.Attribute)
               and node.target.attr == "version"
               for node in ast.walk(function))


def _in_place_sites():
    """``(relative path, qualified function, line, bumps?)`` per site."""
    sites = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        relative = path.relative_to(SOURCE_ROOT).as_posix()

        def visit(node, scope, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner = child if not isinstance(child, ast.ClassDef) \
                        else function
                    visit(child, scope + [child.name], inner)
                    continue
                if _writes_data_in_place(child):
                    sites.append((relative, ".".join(scope), child.lineno,
                                  function is not None
                                  and _bumps_version(function)))
                visit(child, scope, function)

        visit(tree, [], None)
    return sites


def test_every_in_place_data_write_bumps_the_version():
    sites = _in_place_sites()
    missing = [f"{path}:{line} in {name or '<module>'}"
               for path, name, line, bumps in sites if not bumps]
    assert not missing, (
        "in-place writes to .data without `param.version += 1` "
        f"(see repro.nn.Parameter): {missing}")


def test_scan_finds_the_known_writers():
    found = {(path, name) for path, name, _, _ in _in_place_sites()}
    assert KNOWN_WRITERS <= found

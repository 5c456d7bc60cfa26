"""The package's error types share one root, and the package raises no other."""

import ast
import inspect
import pickle
import typing
from pathlib import Path

from trscore import data, errors
from trscore.errors import ParseError, TrscoreError

SOURCE = Path(data.__file__).parent

ERROR_TYPES = {
    name: obj
    for name, obj in vars(errors).items()
    if inspect.isclass(obj) and obj.__module__ == errors.__name__
}


def test_every_error_type_derives_from_the_root():
    assert "ParseError" in ERROR_TYPES and "DomainError" in ERROR_TYPES
    for name, kind in ERROR_TYPES.items():
        assert issubclass(kind, TrscoreError), name


def test_error_types_keep_their_builtin_bases():
    assert issubclass(errors.ParseError, ValueError)
    assert issubclass(errors.ContractError, RuntimeError)
    assert issubclass(errors.DivergenceError, ArithmeticError)
    assert issubclass(errors.FusionUnavailableError, LookupError)


def _raised_name(node: ast.Raise) -> str | None:
    """The name a ``raise`` statement raises: ``X`` for ``raise X(...)`` or
    ``raise X``, ``.error`` for ``raise obj.error(...)``, None for a bare
    re-raise."""
    if node.exc is None:
        return None
    target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(target, ast.Attribute):
        return "." + target.attr
    return target.id if isinstance(target, ast.Name) else ast.unparse(target)


def test_every_raise_uses_a_package_error_type():
    # the CLI catches TrscoreError and OSError only, so a raise of any other
    # type would reach the user as a traceback
    assert typing.get_type_hints(data._Cursor.error)["return"] is ParseError
    strays = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            name = _raised_name(node)
            if name is None or name == ".error":
                continue
            if not issubclass(ERROR_TYPES.get(name, type(None)), TrscoreError):
                strays.append(f"{path.name}:{node.lineno}: {name}")
    assert strays == []


# the modules whose fused nodes extend the tape with autodiff's private parts
TAPE_MODULES = {"autodiff.py", "networks.py", "objectives.py"}


def _private_autodiff_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, text) of each use of a private member of ``autodiff``, through
    an alias of the module or a ``from`` import, and of ``Tensor._from_op``."""
    aliases, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                if module.endswith("autodiff") and alias.name.startswith("_"):
                    uses.append((node.lineno, f"from {module} import {alias.name}"))
                elif alias.name.endswith("autodiff"):
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr == "_from_op" or (
            isinstance(node.value, ast.Name) and node.value.id in aliases
        ):
            uses.append((node.lineno, ast.unparse(node)))
    return uses


def test_only_the_tape_modules_use_private_autodiff_members():
    # every other module puts an array on the tape as ``Tensor(x)`` and reads
    # it back through the public surface, so the tape's rules live in one place
    probe = ast.parse("from . import autodiff as ad\nad._adopt(x)\nTensor._from_op(x, (), None)")
    assert _private_autodiff_uses(probe) == [(2, "ad._adopt"), (3, "Tensor._from_op")]
    strays = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name not in TAPE_MODULES
        for line, text in _private_autodiff_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert strays == []


def _file_writes(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, enclosing function, text) of each ``.write_bytes`` or
    ``.write_text`` call and each ``open`` whose mode may write: one holding
    ``w``, ``x`` or ``a``, or one that is not spelled out as a string."""
    writes = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _may_write(child):
                writes.append((child.lineno, function, ast.unparse(child.func)))
            visit(child, function)

    visit(tree, "<module>")
    return writes


def _may_write(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_bytes", "write_text"):
        return True
    if name != "open":
        return False
    # open(file, mode), os.open(file, flags), or path.open(mode) with one argument
    args = call.args if isinstance(func, ast.Name) or len(call.args) > 1 else [None, *call.args]
    mode = next((k.value for k in call.keywords if k.arg in ("mode", "flags")),
                args[1] if len(args) > 1 else ast.Constant("r"))
    texts = [n.value for n in ast.walk(mode) if isinstance(n, ast.Constant)]
    return not texts or any(set(str(t)) & set("wxa") for t in texts)


def test_only_the_one_writer_opens_a_file_for_writing():
    # data._write_file writes every output file through a temporary file, so a
    # write that fails leaves the earlier file as it was; no module writes past it
    probe = ast.parse(
        "def f(p, m):\n"
        "    open(p, 'rb'), open(p), p.open('a'), open(p, mode=m)\n"
        "    p.write_text('x'), os.open(p, os.O_WRONLY)\n"
    )
    assert [(line, text) for line, _, text in _file_writes(probe)] == [
        (2, "p.open"), (2, "open"), (3, "p.write_text"), (3, "os.open"),
    ]
    strays = [
        f"{path.name}:{line}: {text} in {function}"
        for path in sorted(SOURCE.glob("*.py"))
        for line, function, text in _file_writes(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, function) != ("data.py", "_write_file")
    ]
    assert strays == []


def test_every_error_type_survives_pickling():
    # a process pool sends a worker's error back pickled
    for name, kind in ERROR_TYPES.items():
        error = kind("bad header", 12) if kind is ParseError else kind(f"bad {name}")
        error.note = "kept"
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is kind, name
        assert str(back) == str(error), name
        assert vars(back) == vars(error), name
        assert back.args == error.args, name
    assert str(ParseError("bad header", 12)) == "bad header (byte offset 12)"

"""`tkgrag.files` is the one module that decides how anything reaches disk:
no other module under `src/tkgrag/` opens, moves, truncates, removes or
makes a file or directory."""
from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tkgrag"
OS_CALLS = {"replace", "rename", "truncate", "unlink", "remove", "mkdir", "makedirs"}


def disk_calls(tree: ast.AST):
    """(line, source) of each call to `open`, to one of `OS_CALLS` of `os`
    or to anything in `shutil`, and of each import that would hide one under
    another name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and (func.value.id == "os" and func.attr in OS_CALLS
                         or func.value.id == "shutil")):
                yield node.lineno, ast.unparse(func)
        elif (isinstance(node, ast.Import) and any(a.name == "shutil" for a in node.names)
              or isinstance(node, ast.ImportFrom) and (
                  node.module == "shutil"
                  or node.module == "os" and any(a.name in OS_CALLS for a in node.names))):
            yield node.lineno, ast.unparse(node)


def test_only_files_touches_the_disk():
    modules = sorted(SRC.glob("*.py"))
    assert "files.py" in [path.name for path in modules]
    found = [f"{path.name}:{line}: {call}" for path in modules if path.name != "files.py"
             for line, call in disk_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_check_sees_each_kind_of_call():
    source = ("open(p)\nos.replace(a, b)\nos.makedirs(d)\nshutil.rmtree(d)\n"
              "import shutil\nfrom os import rename\nos.path.join(a, b)\nfh.open()\n")
    assert sorted(line for line, _call in disk_calls(ast.parse(source))) == [1, 2, 3, 4, 5, 6]

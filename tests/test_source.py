"""The package's source read as text: no name in it lacks a reader."""

import ast
import pathlib
import re

import stagebound

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stagebound"


def defined_names(tree: ast.Module, prefix: str):
    """Every function, class and method under `tree`, nested ones too, as
    (qualified name, name)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from defined_names(node, f"{prefix}{node.name}.")
        else:
            yield from defined_names(node, prefix)


def test_every_name_in_src_has_a_reader():
    # a name is read when src names it outside its definitions, when the
    # package exports it, or when perfbench's tracer binds it; dunders are
    # read by Python itself.  Test-only code belongs in tests/
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    source = "\n".join(texts.values())
    tracing = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    unread = []
    for module, text in texts.items():
        for qualified, name in defined_names(ast.parse(text), f"{module}."):
            if name.startswith("__") and name.endswith("__") or name in stagebound.__all__:
                continue
            uses = len(re.findall(rf"\b{name}\b", source))
            if uses > len(re.findall(rf"\b(?:def|class) {name}\b", source)):
                continue
            if f'"{qualified}"' not in tracing:
                unread.append(qualified)
    assert unread == []

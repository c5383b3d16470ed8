"""The package keeps zero runtime dependencies and reads every config key."""

import ast
import sys
from dataclasses import fields
from pathlib import Path

import vhosim
from vhosim.harness import ScenarioConfig


def _sources() -> list[tuple[Path, ast.Module]]:
    paths = sorted(Path(vhosim.__file__).resolve().parent.glob("*.py"))
    assert len(paths) > 1
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_src_imports_only_the_standard_library():
    outside = []
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def test_every_config_field_is_read():
    """A field that nothing reads as cfg.<field>, self.cfg.<field> or inside a
    ScenarioConfig property is a config key the run silently ignores;
    validate() and the config-file parser do not count as readers."""
    read = set()
    for _path, tree in _sources():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            owner = node.value
            if _is_name(owner, "cfg") or (isinstance(owner, ast.Attribute)
                                          and owner.attr == "cfg"
                                          and _is_name(owner.value, "self")):
                read.add(node.attr)
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name == "ScenarioConfig"):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and any(_is_name(d, "property") for d in fn.decorator_list)):
                    read.update(node.attr for node in ast.walk(fn)
                                if isinstance(node, ast.Attribute)
                                and _is_name(node.value, "self"))
    unread = [f.name for f in fields(ScenarioConfig) if f.name not in read]
    assert unread == []

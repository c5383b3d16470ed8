"""The package keeps zero runtime dependencies, reads every config key and
keeps its import cheap."""

import ast
import hashlib
import importlib
import inspect
import pkgutil
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import vhosim
from vhosim.harness import ScenarioConfig
from vhosim.ipv6 import derive_iid


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


def test_import_loads_no_openssl():
    """Importing vhosim leaves hashlib's OpenSSL backend unloaded."""
    src = Path(vhosim.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import vhosim; "
            "assert vhosim.__file__.startswith(sys.path[0]), vhosim.__file__; "
            "print('_hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("node_id,index", [("ha", 0), ("fr", 0), ("cn", 0), ("mn", 0),
                                           ("mn", 1)])
def test_iid_is_hashlibs_blake2b(node_id, index):
    digest = hashlib.blake2b(f"{node_id}/{index}".encode(), digest_size=8).digest()
    assert derive_iid(node_id, index) == int.from_bytes(digest, "big")


def test_scenario_config_is_the_only_dataclass():
    """Every other record is a NamedTuple or a plain class: building a
    dataclass costs import time."""
    found = set()
    for info in pkgutil.iter_modules(vhosim.__path__):
        module = importlib.import_module(f"vhosim.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and is_dataclass(obj)}
    assert found == {ScenarioConfig}


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _walk_past(tree: ast.AST, skip: set[str]):
    """ast.walk, but not into a function named in skip, nor a call of one."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if (isinstance(node, ast.FunctionDef) and node.name in skip
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in skip):
            continue
        yield node
        todo.extend(ast.iter_child_nodes(node))


def test_every_config_field_is_read():
    """A field that nothing reads as cfg.<field>, self.cfg.<field> or inside a
    ScenarioConfig property is a config key the run silently ignores;
    validate() and the config-file parser do not count as readers, nor does
    code that only reports a value: run_metadata and the CSV row."""
    read = set()
    for _path, tree in _sources():
        for node in _walk_past(tree, {"run_metadata", "MetricsRecord"}):
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


# (function or record, name): the defaults a src signature may give to the
# name of a ScenarioConfig field. Tests build bare engines with Simulator(),
# and its seed only names the RNG streams.
_SECOND_DEFAULTS_ALLOWED = {("Simulator.__init__", "seed")}


def _defaults(tree: ast.Module):
    """(qualified owner, name, line) of each parameter or class-body field
    that is given a default, in functions and classes at any depth."""
    todo = [("", node) for node in tree.body]
    while todo:
        prefix, node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            given = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            yield from ((prefix + node.name, arg.arg, node.lineno) for arg in given)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.value is not None:
                    targets = [item.target]
                elif isinstance(item, ast.Assign):
                    targets = item.targets
                else:
                    continue
                yield from ((prefix + node.name, target.id, item.lineno)
                            for target in targets if isinstance(target, ast.Name))
        else:
            continue
        todo.extend((f"{prefix}{node.name}.", child) for child in node.body)


def test_no_second_default_for_a_config_field():
    """ScenarioConfig alone sets a run: no src function or record outside it
    gives a default to a parameter or field named like one of its fields,
    where a caller that forgets to pass the config's value would run on
    another."""
    names = {f.name for f in fields(ScenarioConfig)}
    second = [f"{path.name}:{line}: {owner}({name}=...)"
              for path, tree in _sources() for owner, name, line in _defaults(tree)
              if name in names and owner.split(".")[0] != "ScenarioConfig"
              and (owner, name) not in _SECOND_DEFAULTS_ALLOWED]
    assert second == []


def _handlers() -> set[str]:
    """bench/tracer.py HANDLERS: the event callbacks the benchmark counts."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and _is_name(node.targets[0], "HANDLERS"):
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"no HANDLERS in {path}")


def test_every_scheduled_callback_is_a_counted_handler():
    """Each callback passed to schedule_at or schedule_in resolves to
    Class.method names listed in HANDLERS, so engine.events.other stays 0 on
    every workload. A callback reached through an attribute resolves to every
    class that defines a method of that name, or, for an attribute holding a
    callable, to what is assigned to it."""
    trees = [tree for path, tree in _sources() if path.name != "engine.py"]
    methods: dict[str, set[str]] = {}  # method name -> "Class.method"
    assigned: dict[str, list[ast.expr]] = {}  # attribute -> values assigned to it
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        methods.setdefault(fn.name, set()).add(f"{node.name}.{fn.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    if isinstance(target, ast.Attribute):
                        assigned.setdefault(target.attr, []).append(node.value)

    def resolve(expr: ast.expr) -> set[str]:
        if isinstance(expr, ast.BoolOp):
            return set().union(*(resolve(value) for value in expr.values))
        if isinstance(expr, ast.Constant) and expr.value is None:
            return set()
        if isinstance(expr, ast.Attribute):
            if expr.attr in methods:
                return methods[expr.attr]
            values = assigned.get(expr.attr, [])
            if values:
                return set().union(*(resolve(value) for value in values))
        return {f"<unresolved {ast.unparse(expr)}>"}

    handlers = _handlers()
    seen, outside = set(), []
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("schedule_at", "schedule_in")):
                names = resolve(node.args[1])
                seen |= names
                outside += [f"line {node.lineno}: {name}" for name in sorted(names - handlers)]
    assert len(seen) >= 10  # the scan found the scheduling calls
    assert outside == []

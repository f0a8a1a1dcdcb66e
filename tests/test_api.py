"""The package defines no public name or method used nowhere or only by
tests, no uncalled private one and no module-level name it never reads,
its functions read every parameter and have no default that every call
site overrides, its core computes without floating point, no flag reads
with int(), every name it loads is bound in its module, the value classes
share one ``__init__``, and every source file parses as Python 3.10."""

import argparse
import ast
import builtins
import collections
import os
import subprocess
import sys
from pathlib import Path

import continua
from continua.cli import build_parser

SRC = Path(continua.__file__).parent
TESTS = Path(__file__).parent
MODULES = {p.stem for p in SRC.glob("*.py")}


def _named(tree) -> list[str]:
    """Each name ``tree`` uses bare or reads as ``module.name`` off a module
    of the package.  An import is not a use, so an import left behind by
    the last caller hides nothing; ``_unused_imports`` flags the import."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute) and ast.unparse(n.value).split(".")[-1] in MODULES:
            out.append(n.attr)
    return out


def _named_only_in_own_definition(code: list[Path], public: bool) -> list[str]:
    """``file:name`` for each module-level def or class of the package, public
    or private as ``public`` says, that ``code`` names nowhere outside its own
    definition."""
    uses = collections.Counter(name for p in code for name in _named(ast.parse(p.read_text())))
    return [
        f"{p.name}:{node.name}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.parse(p.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") != public
        and not node.name.startswith("__")
        and uses[node.name] == _named(node).count(node.name)
    ]


def test_every_public_definition_is_used():
    # every module, not only a re-exported list: a public def or class must
    # be named in src/ or tests/, bare or as module.name
    code = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = _named_only_in_own_definition(code, public=True)
    assert unused == [], f"public definitions named nowhere in src/ or tests/: {unused}"


def test_no_test_only_definition_in_src():
    # src/ holds what a subcommand, the benchmark or an acceptance criterion
    # runs; a helper that only tests call belongs in tests/conftest.py
    code = sorted(SRC.glob("*.py")) + sorted((TESTS.parent / "perfbench").glob("*.py"))
    code.append(TESTS / "test_acceptance.py")
    unused = _named_only_in_own_definition(code, public=True)
    assert unused == [], f"public definitions that only tests name: {unused}"


def _unused_imports(path: Path) -> list[str]:
    """``line: name`` for each name that an import in ``path`` binds and
    that its module never loads, in code or in an annotation; ``from
    __future__`` imports aside."""
    tree = ast.parse(path.read_text())
    loaded = {
        n.id for t in (tree, *_annotations(tree)) for n in ast.walk(t)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
            out += [f"{node.lineno}: {name}" for name in bound if name not in loaded]
    return out


def test_no_unused_import_in_src():
    found = [f"{p.name}:{use}" for p in sorted(SRC.glob("*.py")) for use in _unused_imports(p)]
    assert found == [], f"imports that their module never uses: {found}"


def test_an_unused_import_hides_no_test_only_definition(tmp_path, monkeypatch):
    # a public def whose last caller is gone, with an import of it left
    # behind: the definition scan flags the def and the import scan the
    # import.  A name read only in a string annotation is a use.
    (tmp_path / "rational.py").write_text("def format_rational(x):\n    return str(x)\n")
    user = tmp_path / "shadowing.py"
    user.write_text(
        "from fractions import Fraction as F\n"
        "from .rational import format_rational\n"
        "def half() -> 'F':\n    return 1\n"
        "half()\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _named_only_in_own_definition([user], public=True) == ["rational.py:format_rational"]
    assert _unused_imports(user) == ["2: format_rational"]


def _unread_constants() -> list[str]:
    """``file:name`` for each name that a module-level assignment in
    ``SRC`` binds and that no module there loads, bare, as
    ``module.name`` or in a string annotation."""
    loaded = set()
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text())
        for n in (n for t in (tree, *_annotations(tree)) for n in ast.walk(t)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                if ast.unparse(n.value).split(".")[-1] in MODULES:
                    loaded.add(n.attr)
    return [
        f"{p.name}:{target.id}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.parse(p.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id not in loaded
    ]


def test_every_module_constant_is_read():
    # the definition scans see defs, classes and imports; a constant that
    # only a deleted branch read would pass them
    unread = _unread_constants()
    assert unread == [], f"module-level names that src/ never loads: {unread}"


def test_constant_scan_sees_a_constant_no_module_reads(tmp_path, monkeypatch):
    # names read bare, off a module of the package or in a string
    # annotation are kept; one that no module loads is flagged, annotated
    # or not
    (tmp_path / "plmap.py").write_text(
        "_STEP = 8\n_BLOCK = 16\nSIZE = 4\nPair = tuple[int, int]\n_TOP: int = 2\n"
        "def walk(n) -> 'Pair':\n    return n * _BLOCK\n"
    )
    (tmp_path / "cantor.py").write_text("from . import plmap\nWIDTH = plmap.SIZE\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _unread_constants() == ["cantor.py:WIDTH", "plmap.py:_STEP", "plmap.py:_TOP"]


def _attributes(tree) -> list[str]:
    """Each name ``tree`` reads as an attribute of anything.  A bare name,
    such as a parameter or a local, is not a use of a method."""
    return [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]


def _methods_named_only_in_own_definition(code: list[Path]) -> list[str]:
    """``file:Class.method`` for each public method (or property) of a class
    of the package that ``code`` names nowhere outside its own definition
    as ``obj.method``, off any object."""
    uses = collections.Counter(name for p in code for name in _attributes(ast.parse(p.read_text())))
    return [
        f"{p.name}:{cls.name}.{node.name}"
        for p in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(p.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and uses[node.name] == _attributes(node).count(node.name)
    ]


def test_no_test_only_method_in_src():
    # as for module-level definitions: a public method that only tests call
    # belongs in tests/conftest.py.  Methods are matched by name alone, so
    # any attribute of that name outside tests/ keeps a method, and a bare
    # name (a parameter named like a property) keeps none
    code = sorted(SRC.glob("*.py")) + sorted((TESTS.parent / "perfbench").glob("*.py"))
    code.append(TESTS / "test_acceptance.py")
    unused = _methods_named_only_in_own_definition(code)
    assert unused == [], f"public methods that only tests name: {unused}"


def test_method_scan_sees_a_method_only_tests_call(tmp_path, monkeypatch):
    mod = tmp_path / "m.py"
    mod.write_text(
        "class A:\n"
        "    def read(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    def _private(self):\n        return 0\n"
        "    @property\n    def window(self):\n        return 2\n"
        "def pad(window):\n    return window\n"
        "A().read()\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert _methods_named_only_in_own_definition([mod]) == ["m.py:A.recursive", "m.py:A.window"]


def test_cli_import_loads_every_module():
    # perfbench/spans.py reads the layer modules as attributes of the package
    # once `import continua.cli` has run; the package root imports none
    modules = ["rational", "geometry", "plmap", "cantor", "continuum", "shadowing", "svg", "cli"]
    probe = (
        f"import continua; print([n for n in {modules} if hasattr(continua, n)]); "
        f"import continua.cli; print([n for n in {modules} if not hasattr(continua, n)])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        timeout=60,
    )
    assert proc.stdout.split("\n") == ["[]", "[]", ""], proc.stderr


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    # each CLI op runs in a fresh interpreter, so these imports would cost
    # every op: the value classes are plain classes, and only the orbit CSV
    # reader imports csv
    heavy = ["dataclasses", "inspect", "csv"]
    probe = f"import sys, continua.cli; print([n for n in {heavy} if n in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        timeout=60,
    )
    assert proc.stdout == "[]\n", proc.stderr


def test_value_classes_share_one_init():
    # _Frozen.__init__ stores the fields of every value class, so how they
    # are stored is decided in one place; none is generated with exec,
    # which compiles its source on every import, so in every CLI op
    frozen, own_init, execs = [], [], []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.ClassDef) and "_Frozen" in map(ast.unparse, node.bases):
                frozen.append(node.name)
                own_init += [
                    f"{p.name}:{node.name}"
                    for n in node.body
                    if isinstance(n, ast.FunctionDef) and n.name == "__init__"
                ]
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "exec":
                execs.append(f"{p.name}:{node.lineno}")
    assert len(frozen) == 14 and "PLHomeo" in frozen
    assert own_init == [], f"value classes with their own __init__: {own_init}"
    assert execs == []


# The value classes whose JSON is not their fields, so that they keep their
# own to_json: OrientedInterval and PLHomeo write their integer forms and
# build no Fraction, and the other four rename, sort or leave out fields.
OWN_JSON = {"OrientedInterval", "PLHomeo", "ShadowingSet", "ConjugacyReport", "YModel", "YHomeo"}


def test_value_classes_share_one_json_rule():
    # _Frozen.to_json writes every other value class field by field
    own = {
        node.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.ClassDef)
        and "_Frozen" in map(ast.unparse, node.bases)
        and any(isinstance(n, ast.FunctionDef) and n.name == "to_json" for n in node.body)
    }
    assert own == OWN_JSON, f"value classes with their own to_json: {sorted(own)}"


def test_cli_leaves_the_certify_run_to_shadowing():
    # certify is one call of shadowing.certify_model, which holds the cover,
    # the samplers and their seeds; cmd_certify only builds and writes
    tree = ast.parse((SRC / "cli.py").read_text())
    run = {"global_shadowing_delta", "sample_certificate_soundness", "sample_global_soundness"}
    assert run & set(_named(tree)) == set()
    certify = next(n for n in tree.body if getattr(n, "name", None) == "cmd_certify")
    seed_math = [
        ast.unparse(n) for n in ast.walk(certify)
        if isinstance(n, ast.BinOp) and "seed" in ast.unparse(n)
    ]
    assert seed_math == [], f"seed arithmetic in cmd_certify: {seed_math}"


def _unread_parameters(path: Path) -> list[str]:
    """``function.parameter`` for each parameter of a function in ``path``
    (``self`` and ``cls`` aside) that its body never names."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        named = {
            n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)
        }
        out += [
            f"{node.name}.{p.arg}"
            for p in params
            if p.arg not in {"self", "cls"} and p.arg not in named
        ]
    return out


def test_every_parameter_is_read():
    unread = [name for p in sorted(SRC.glob("*.py")) for name in _unread_parameters(p)]
    assert unread == [], f"parameters that change no result: {unread}"


# the math functions that take and return only integers (TypeError on a float)
INTEGER_MATH = {"gcd", "isqrt", "lcm"}


def _float_uses(path: Path) -> list[str]:
    """``line: what`` for each float constant, call to ``float`` and use of
    ``math`` outside ``INTEGER_MATH`` in ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"{node.lineno}: float constant {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                out.append(f"{node.lineno}: float()")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr not in INTEGER_MATH:
                out.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [
                f"{node.lineno}: from math import {a.name}"
                for a in node.names
                if a.name not in INTEGER_MATH
            ]
    return out


def test_core_has_no_floats():
    # svg.py only formats coordinates for drawing; every other module is exact
    core = [p for p in sorted(SRC.glob("*.py")) if p.name != "svg.py"]
    found = [f"{p.name}:{use}" for p in core for use in _float_uses(p)]
    assert found == [], f"floating point in the exact core: {found}"


def test_float_scan_admits_only_integer_math(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import math\nfrom math import floor, lcm\nmath.sqrt(2)\nmath.isqrt(2)\n")
    assert _float_uses(src) == ["2: from math import floor", "3: math.sqrt"]


def _annotations(tree) -> list[ast.expr]:
    """Each string annotation in ``tree``, parsed, so that the names it
    holds are scanned too."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            a = node.annotation
        else:
            continue
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            out.append(ast.increment_lineno(ast.parse(a.value, mode="eval"), a.lineno - 1))
    return out


def _unresolved(path: Path) -> list[str]:
    """``line: name`` for each name that ``path`` loads and that is neither
    a builtin nor bound anywhere in its module: by an import, a def or
    class, an argument, an assignment target or an ``except ... as``."""
    tree = ast.parse(path.read_text())
    nodes = [n for t in (tree, *_annotations(tree)) for n in ast.walk(t)]
    bound = set(dir(builtins)) | {"__file__"}
    for n in nodes:
        if isinstance(n, ast.alias):
            bound.add(n.asname or n.name.split(".")[0])
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(n.name)
        elif isinstance(n, ast.arg):
            bound.add(n.arg)
        elif isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            bound.add(n.id)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            bound.add(n.name)
    return [f"{n.lineno}: {n.id}" for n in nodes
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in bound]


def test_every_name_resolves():
    # an annotation is never evaluated under ``from __future__ import
    # annotations``, so an unimported name in one fails no run
    found = [f"{p.name}:{use}" for p in sorted(SRC.glob("*.py")) for use in _unresolved(p)]
    assert found == [], f"names bound nowhere in their module: {found}"


def test_name_scan_reads_annotations(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from x import a as b\n"
        "def f(c) -> 'Late':\n"
        "    try:\n"
        "        d: Point = [e for e in c]\n"
        "    except ValueError as err:\n"
        "        return b, d, err, g\n"
    )
    assert _unresolved(src) == ["4: Point", "6: g", "2: Late"]


def _options(parser: argparse.ArgumentParser):
    """(subcommand path, option) for every option of ``parser`` and its
    subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _options(sub)
        else:
            yield parser.prog, action


def test_no_option_reads_with_int():
    # int() also reads "1_0", "+1" and non-ASCII digits; flags use the one
    # integer rule of rational.parse_integer instead
    found = [f"{prog} {'/'.join(a.option_strings) or a.dest}"
             for prog, a in _options(build_parser()) if a.type is int]
    assert found == [], f"options parsed with the builtin int: {found}"


def _writers(path: Path) -> list[str]:
    """``function: call`` for each call of ``_write`` or ``sys.stdout.write``
    in ``path``, by the innermost function that makes it."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                call = ast.unparse(child.func)
                if call in {"_write", "sys.stdout.write"}:
                    out.append(f"{owner}: {call}")
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return out


def test_cli_writes_artifacts_in_one_place():
    # subcommands return their artifact; main alone writes it, through _write
    assert sorted(_writers(SRC / "cli.py")) == ["_write: sys.stdout.write", "main: _write"]
    per_command = {}
    for prog, action in _options(build_parser()):
        for flag in action.option_strings:
            per_command.setdefault(prog, []).append(flag)
    commands = [prog for prog in per_command if prog != "continua"]
    assert [c for c in commands if "--format" in per_command[c]] == []
    assert [c for c in commands if per_command[c].count("--out") != 1] == []
    # --out is declared by one add_argument call for all subcommands
    declared = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("add_argument")
        and any(isinstance(a, ast.Constant) and a.value == "--out" for a in node.args)
    ]
    assert len(declared) == 1, f"--out declared on lines {declared}"



def _defaults(path: Path) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position in a call or None) for each parameter
    of a function in ``path`` that has a default.  A method's position
    leaves out ``self``, as in a call ``obj.method(...)``."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                static = "staticmethod" in map(ast.unparse, child.decorator_list)
                skip = int(in_class and not static)
                out.extend((child.name, p.arg, i - skip)
                           for i, p in enumerate(positional) if i >= first)
                out.extend((child.name, p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(path.read_text()), False)
    return out


def _omits(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` may leave ``param`` to its default; one that spreads
    ``*args`` or ``**kwargs`` may."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == param for k in call.keywords):
        return False
    return position is None or len(call.args) <= position


def test_no_default_every_caller_overrides():
    # a default that no call site relies on is a second value nothing runs
    code = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    code += sorted((TESTS.parent / "perfbench").glob("*.py"))
    calls: dict[str, list[ast.Call]] = {}
    for path in code:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    overridden = [
        f"{path.stem}.{fn}.{param}"
        for path in sorted(SRC.glob("*.py"))
        for fn, param, position in _defaults(path)
        if not any(_omits(c, param, position) for c in calls.get(fn, ()))
    ]
    assert overridden == [], f"defaults that every call site overrides: {overridden}"


def test_every_private_function_is_called():
    # a module-level _name def or class must be named in src/ outside its
    # own definition; names inside f-strings are AST names and count
    unused = _named_only_in_own_definition(sorted(SRC.glob("*.py")), public=False)
    assert unused == [], f"private definitions named nowhere else in src/: {unused}"


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares the floor; this checks the grammar only (no
    # `except*`, no `def f[T](x)`), not which standard-library names a
    # version has
    root = TESTS.parent
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text()
    dirs = ("src", "tests", "perfbench", "tools")
    paths = [p for d in dirs for p in sorted((root / d).rglob("*.py"))]
    bad = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            bad.append(f"{path.relative_to(root)}:{exc.lineno}: {exc.msg}")
    assert paths and bad == [], f"sources that Python 3.10 cannot parse: {bad}"

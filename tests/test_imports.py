"""Every imported name in the package and its tests is used, every private
helper of the package has a caller, every defaulted parameter of the package
is both passed and omitted somewhere, every cross-reference in a package
docstring names something the package defines, every console script
resolves, every entry point the benchmark's tracer wraps exists, and every
source file parses at the Python floor that ``pyproject.toml`` declares."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def _annotation_names(node):
    """Names inside string annotations such as ``-> "GridScalar"``."""
    for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    expr = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
        used.update(_annotation_names(node))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    src = "import os\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(src) == ["d (line 2)", "os (line 1)"]
    assert unused_imports("from x import T\ndef f() -> 'T': pass\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PACKAGE = sorted((ROOT / "src" / "supertorus").glob("*.py"))


def _bound_names(stmt) -> list[str]:
    """Names a ``def``, ``class`` or assignment statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def orphaned_privates(sources: dict[str, str]) -> list[str]:
    """Top-level ``_name`` definitions (function, class or assignment) that
    no other top-level statement of any of ``sources`` refers to."""
    defined, statements = [], []
    for fname, source in sources.items():
        for stmt in ast.parse(source).body:
            defined += [(fname, name, stmt) for name in set(_bound_names(stmt))
                        if name.startswith("_") and not name.endswith("__")]
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
                refs.update(_annotation_names(node))
            statements.append((stmt, refs))
    return sorted(f"{fname}: {name}" for fname, name, owner in defined
                  if not any(name in refs for stmt, refs in statements if stmt is not owner))


def test_scan_flags_an_orphaned_private_helper():
    src = ("_A = 1\n_B = 2\n__all__ = []\n"
           "def _f(): return _f()\ndef _g(): pass\ndef h(): return _A + _g()\n")
    assert orphaned_privates({"m.py": src, "n.py": "from m import _B\n"}) == [
        "m.py: _f"]


def test_no_orphaned_private_helpers():
    assert orphaned_privates({p.name: p.read_text() for p in PACKAGE}) == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is decorated with ``dataclass``, called or not."""
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_defaults(cls: ast.ClassDef):
    """``(field, position)`` for each defaulted field of a dataclass, the
    position counted over the fields its ``__init__`` takes in order."""
    fields = [stmt for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and "ClassVar" not in ast.unparse(stmt.annotation)]
    for i, stmt in enumerate(fields):
        if stmt.value is not None:
            yield stmt.target.id, i


def defaulted_parameters(sources: dict[str, str]):
    """``(label, called name, parameter, position)`` for each parameter with
    a default of a function or method of ``sources``.  A method's position
    leaves out ``self`` or ``cls``; keyword-only parameters have position
    None.  ``__init__`` is called by its class's name, and so is the
    ``__init__`` a ``@dataclass`` generates, whose parameters are the
    class's fields."""
    for fname, source in sources.items():
        tree = ast.parse(source)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                for field, position in _dataclass_defaults(cls):
                    yield f"{fname}: {cls.name}", cls.name, field, position
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0
            label = f"{fname}: {cls.name + '.' if cls else ''}{fn.name}"
            called = cls.name if cls is not None and fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            for i in range(len(args) - len(fn.args.defaults), len(args)):
                yield label, called, args[i].arg, i - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield label, called, arg.arg, None


def call_sites(sources: dict[str, str]) -> dict[str, list[tuple[set, float]]]:
    """Per called name, one ``(keywords, positional count)`` per call: the
    keywords it passes (None for ``**``) and how many positional arguments
    (infinite through ``*``).  ``name(...)`` and ``obj.name(...)`` call
    ``name``, except on a module bound by ``import``; ``cls(...)`` calls the
    class it appears in."""
    out: dict[str, list[tuple[set, float]]] = {}
    for source in sources.values():
        tree = ast.parse(source)
        modules = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        enclosing = {id(node): cls.name for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                name = enclosing.get(id(call), func.id) if func.id == "cls" else func.id
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) not in modules:
                name = func.attr
            else:
                continue
            unpacked = any(isinstance(a, ast.Starred) for a in call.args)
            out.setdefault(name, []).append(({kw.arg for kw in call.keywords},
                                             float("inf") if unpacked else len(call.args)))
    return out


def _passes(site, param, position) -> bool:
    """Whether a call site passes the parameter; ``**`` and ``*`` may."""
    keywords, count = site
    return (param in keywords or None in keywords
            or position is not None and position < count)


def unpassed_defaults(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``label(parameter=)`` for each defaulted parameter of ``package`` that
    no call in ``callers`` passes, by keyword or by position."""
    sites = call_sites(callers)
    return sorted(f"{label}({param}=)"
                  for label, called, param, position in defaulted_parameters(package)
                  if not any(_passes(s, param, position) for s in sites.get(called, ())))


def unomitted_defaults(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``label(parameter=)`` for each defaulted parameter of ``package`` that
    every call in ``callers`` passes, so that its default is never used; a
    function with no call is left to :func:`unpassed_defaults`."""
    sites = call_sites(callers)
    return sorted(f"{label}({param}=)"
                  for label, called, param, position in defaulted_parameters(package)
                  if sites.get(called) and all(_passes(s, param, position)
                                               for s in sites[called]))


def test_scan_flags_an_unpassed_default():
    package = ("def f(a, b=1, *, c=2): pass\n"
               "class C:\n"
               "    def __init__(self, x=0, y=0): pass\n"
               "    @classmethod\n    def make(cls): return cls(1)\n"
               "    def m(self, z=None): pass\n"
               "    @staticmethod\n    def s(w=1): pass\n"
               "    def t(self, v=1): pass\n"
               "    def k(self, *, u=1): pass\n")
    callers = "import np\nf(1, 2)\nC(y=3)\nC().m()\nnp.s(1)\nC().t(*[1])\nC().k(**{})\n"
    assert unpassed_defaults({"m.py": package}, {"m.py": package, "t.py": callers}) == [
        "m.py: C.m(z=)", "m.py: C.s(w=)", "m.py: f(c=)"]


def test_scan_reads_dataclass_fields_as_parameters():
    package = ("from dataclasses import dataclass\n"
               "from typing import ClassVar\n"
               "@dataclass(frozen=True)\n"
               "class D:\n"
               "    a: int\n    b: int = 1\n    c: str = 'x'\n    k: ClassVar[int] = 0\n"
               "@dataclass\nclass E:\n    e: int = 0\n"
               "class P:\n    p: int = 0\n")
    callers = "D(0)\nD(0, 2)\nD(0, c='y')\nE(e=1)\nP()\n"
    sources = {"m.py": package, "t.py": callers}
    assert list(defaulted_parameters({"m.py": package})) == [
        ("m.py: D", "D", "b", 1), ("m.py: D", "D", "c", 2), ("m.py: E", "E", "e", 0)]
    assert unpassed_defaults({"m.py": package}, sources) == []
    assert unomitted_defaults({"m.py": package}, sources) == ["m.py: E(e=)"]
    assert unpassed_defaults({"m.py": package}, {"t.py": "D(0)\nE()\n"}) == [
        "m.py: D(b=)", "m.py: D(c=)", "m.py: E(e=)"]


def test_every_default_is_passed_somewhere():
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unpassed_defaults({p.name: p.read_text() for p in PACKAGE}, callers) == []


def test_scan_flags_an_unomitted_default():
    package = ("def f(a, b=1, *, c=2): pass\n"
               "class C:\n"
               "    def __init__(self, x=0, y=0): pass\n"
               "    @classmethod\n    def make(cls): return cls(1)\n"
               "    def m(self, z=None): pass\n"
               "    @staticmethod\n    def s(w=1): pass\n"
               "    def t(self, v=1): pass\n"
               "    def k(self, *, u=1): pass\n"
               "def g(q=1): pass\n")
    callers = ("import np\nf(1, 2, c=3)\nf(0, c=1)\nC(y=3)\nC().m(None)\nnp.s(1)\n"
               "C().t(*[1])\nC().k(**{})\n")
    assert unomitted_defaults({"m.py": package}, {"m.py": package, "t.py": callers}) == [
        "m.py: C.k(u=)", "m.py: C.m(z=)", "m.py: C.t(v=)", "m.py: f(c=)"]


def test_every_default_is_omitted_somewhere():
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unomitted_defaults({p.name: p.read_text() for p in PACKAGE}, callers) == []


ROLE = re.compile(r":(?:func|class|meth|mod|data|attr):`~?\.?([\w.]+)`")


def defined_names(sources: dict[str, str]) -> set[str]:
    """What a docstring may point at: each module ``m`` (also as
    ``supertorus.m``), each top-level name ``n`` (also as ``m.n``), and each
    class member ``a`` (also as ``C.a`` and ``m.C.a``)."""
    names = set()
    for fname, source in sources.items():
        mod = fname.removesuffix(".py")
        names |= {mod, f"supertorus.{mod}"}
        for stmt in ast.parse(source).body:
            for top in _bound_names(stmt):
                names |= {top, f"{mod}.{top}"}
            if isinstance(stmt, ast.ClassDef):
                for attr in (a for member in stmt.body for a in _bound_names(member)):
                    names |= {attr, f"{stmt.name}.{attr}", f"{mod}.{stmt.name}.{attr}"}
    return names


def dangling_references(sources: dict[str, str]) -> list[str]:
    """``:func:``-style references in the docstrings of ``sources`` whose
    target :func:`defined_names` does not list."""
    known = defined_names(sources)
    out = []
    for fname, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node) or ""
                out += [f"{fname}: {ref}" for ref in ROLE.findall(doc) if ref not in known]
    return sorted(out)


def test_scan_flags_a_dangling_docstring_reference():
    src = ('"""Uses :mod:`m`, :func:`~m.f`, :class:`C` and :meth:`C.g`."""\n'
           'def f():\n    """Not :func:`gone`, nor :attr:`C.h`."""\n'
           'class C:\n    """See :attr:`size` and :data:`LIMIT`."""\n'
           '    size: int = 0\n    def g(self): pass\nLIMIT = 3\n')
    assert dangling_references({"m.py": src}) == ["m.py: C.h", "m.py: gone"]


def test_docstring_references_resolve():
    assert dangling_references({p.name: p.read_text() for p in PACKAGE}) == []


def console_scripts(pyproject: str) -> dict[str, str]:
    """``name = "module:function"`` lines of the ``[project.scripts]`` table."""
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    return dict(re.findall(r'^([\w.-]+)\s*=\s*"([^"]*)"', table.group(1), re.M)
                if table else ())


def resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_console_script_scan():
    text = ('[project]\nname = "x"\n\n[project.scripts]\nverify = "supertorus.cli:main"\n'
            'other-tool = "a.b:c.d"\n\n[tool.x]\nkey = "m:f"\n')
    assert console_scripts(text) == {"verify": "supertorus.cli:main",
                                     "other-tool": "a.b:c.d"}
    assert console_scripts('[project]\nname = "x"\n') == {}
    assert callable(resolve("supertorus.clifford:mat_apply"))
    with pytest.raises(ModuleNotFoundError):
        resolve("supertorus.no_such_module:main")


def test_console_scripts_resolve():
    for name, target in console_scripts((ROOT / "pyproject.toml").read_text()).items():
        assert callable(resolve(target)), name


def missing_entry_points(entry_points) -> list[str]:
    """``span: owner.attribute`` for each ``(span, owner, attribute)`` whose
    owner does not itself define the attribute, as patching it requires."""
    return [f"{span}: {getattr(owner, '__name__', owner)}.{attr}"
            for span, owner, attr in entry_points if attr not in vars(owner)]


def test_entry_point_scan_flags_a_missing_attribute():
    class Base:
        def f(self): pass

    class Derived(Base):
        pass

    points = [("a", Base, "f"), ("b", Derived, "f"), ("c", Base, "g")]
    assert missing_entry_points(points) == ["b: Derived.f", "c: Base.g"]


def test_traced_entry_points_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    assert missing_entry_points(tracer.ENTRY_POINTS) == []


def python_floor(pyproject: str) -> tuple[int, int]:
    """``(major, minor)`` of the ``requires-python = ">=X.Y"`` line."""
    found = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', pyproject, re.M)
    return int(found.group(1)), int(found.group(2))


def syntax_above(source: str, floor: tuple[int, int]) -> str | None:
    """The error of parsing ``source`` with the grammar of Python ``floor``,
    or None when it parses."""
    try:
        ast.parse(source, feature_version=floor)
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


def test_floor_scan_flags_an_exception_group():
    assert python_floor('[project]\nrequires-python = ">=3.10"\n') == (3, 10)
    src = "try:\n    pass\nexcept{} ValueError:\n    pass\n"
    assert syntax_above(src.format("*"), (3, 10)) is not None
    assert syntax_above(src.format(""), (3, 10)) is None
    match = "match x:\n    case 1:\n        pass\n"
    assert syntax_above(match, (3, 9)) is not None
    assert syntax_above(match, (3, 10)) is None


SOURCES = [p for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_at_the_python_floor(path):
    floor = python_floor((ROOT / "pyproject.toml").read_text())
    assert syntax_above(path.read_text(), floor) is None

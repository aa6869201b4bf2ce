"""The package holds what ``htfoliation`` runs, and the README runs.

Every module-level function, class or assigned name of ``src/htfoliation``
that is not a dunder, and every method that is not a dunder, is referenced
by the package outside its own definition, or is listed in ``ALLOWED`` with
its reason.  Reference routes and helpers that only tests use live in
``tests/``.  No command builds a polynomial of degree above 2.
"""

import ast
import re
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from htfoliation import geometry
from htfoliation.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "htfoliation"
README = (ROOT / "README.md").read_text()

#: definitions that stay although no package code references them
ALLOWED = {
    "FiniteFloatRange.convert": "called by click",
    "FiniteFloatRange._describe_range": "called by click",
    "check_oneill": "registered as a check by ROADMAP item 2",
    "integrate_sphere": "patched by perfbench until ROADMAP item 1",
    "sub_laplacian_poly": "patched by perfbench until ROADMAP item 1",
    "ricci_h": "README API",
}

IDENTIFIER = re.compile(r"[A-Za-z_][\w.]*")


def _is_command(node) -> bool:
    """A click command or group: the CLI runs it by name."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def _assigned(node) -> list[str]:
    """The names that a module-level assignment binds, dunders excepted."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            and not re.fullmatch(r"__\w+__", name.id)]


def _definitions(tree):
    """(qualified name, name, node) of the module-level functions, classes
    and assigned names, and of the methods, that are not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not _is_command(node):
            yield node.name, node.name, node
        for name in _assigned(node):
            yield name, name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree):
    """(name, line) of every name, attribute, and identifier-like string
    (``getattr`` and patch targets such as "analysis.rayleigh_ritz")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def unreferenced() -> list[str]:
    refs, defs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += [(path, line, name) for name, line in _references(tree)]
        defs += [(path, qual, name, node)
                 for qual, name, node in _definitions(tree)]
    return [qual for path, qual, name, node in defs
            if not any(ref == name and not (
                where == path and node.lineno <= line <= node.end_lineno)
                for where, line, ref in refs)]


def test_package_defines_only_what_it_uses():
    assert sorted(unreferenced()) == sorted(ALLOWED)


def environment_reads(source: str) -> list[str]:
    """Where ``source`` reads the process environment: ``os.environ``
    (also imported by name) and ``getenv`` calls."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in names:
            found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_package_reads_no_environment():
    """Every setting is an option or a documented constant, never an
    environment variable, so a run is fixed by its command line."""
    assert environment_reads("import os\nx = os.environ.get('A')\n"
                             "from os import getenv\ny = getenv('B')\n") \
        == ["2: environ", "3: getenv", "4: getenv"]
    found = {path.name: environment_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def foliation_internals_read(source: str) -> list[str]:
    """Where ``source`` reaches behind the public readers of ``foliation``:
    an underscore-prefixed name imported from it or read off the module,
    or the ``jets`` attribute of a batch (``FoliationModel.jets(...)``, a
    call, evaluates the spanning jets and is public)."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "foliation":
                found += [(node.lineno, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "foliation"}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names
                        if alias.name.endswith(".foliation") and alias.asname}
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if (isinstance(node.value, ast.Name) and node.value.id in aliases
                and node.attr.startswith("_")):
            found.append((node.lineno, node.attr))
        elif node.attr == "jets" and id(node) not in called:
            found.append((node.lineno, node.attr))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_only_foliation_reads_its_internals():
    """Checks and commands read kept frame components only through the
    public readers of ``foliation``, so only ``foliation.py`` knows the
    entry names, the builders and the batch's jet layout."""
    assert foliation_internals_read(
        "from .foliation import FrameBatch, _contract3\n"
        "from . import foliation as fol\n"
        "import htfoliation.foliation as hf\n"
        "a = fol._chunked(fb) + hf._contract2(fb) + fol.torsion(m, p)\n"
        "b = fb.jets[0][-m:]\nc = model.jets(cache)\n") \
        == ["1: _contract3", "4: _chunked", "4: _contract2", "5: jets"]
    found = {path.name: foliation_internals_read(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "foliation.py"}
    assert {name: f for name, f in found.items() if f} == {}


def test_jets_run_one_per_point_kernel():
    """The jet arithmetic runs its per-point matrix-vector products through
    one kernel, ``geometry._pointwise``: it is the only helper of
    ``geometry.py`` that PointField calls and that runs a matmul, the
    kernels it replaced are gone, and the broadcast matvec
    ``(T @ x[..., None])[..., 0]``, one small product per leading entry and
    point, is left under ``src/`` only as the kernel's fallback."""
    tree = ast.parse((PACKAGE / "geometry.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    point_field = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef)
                       and node.name == "PointField")
    called = {node.func.id for node in ast.walk(point_field)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    kernels = [name for name in sorted(called & set(functions))
               if any(isinstance(node, ast.BinOp)
                      and isinstance(node.op, ast.MatMult)
                      for node in ast.walk(functions[name]))]
    assert kernels == ["_pointwise"]
    kernel = functions["_pointwise"]
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"\b(_per_point|_hessian_along)\b", text), \
            path.name
        for line, code in enumerate(text.splitlines(), 1):
            if "[..., None])[..., 0]" in code:
                assert (path.name == "geometry.py"
                        and kernel.lineno <= line <= kernel.end_lineno), \
                    (path.name, line)


def test_two_index_entries_only_read_the_table():
    """Every projection of a two-index entry goes through the derivative
    table, which projects each block group's field once: the entry builders
    reference no projection, split or matrix application."""
    tree = ast.parse((PACKAGE / "foliation.py").read_text())
    model = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "FoliationModel")
    methods = {node.name: node for node in model.body
               if isinstance(node, ast.FunctionDef)}
    banned = {"pi_h", "pi_v", "split", "_onto", "apply_matrix"}
    for name in ("bracket_entry", "bott_entry", "torsion_entry", "lc_entry"):
        used = {node.attr if isinstance(node, ast.Attribute) else node.id
                for node in ast.walk(methods[name])
                if isinstance(node, (ast.Attribute, ast.Name))}
        assert not used & banned, (name, sorted(used & banned))


def support_reads(source: str) -> list[str]:
    """Where ``source`` reads a jet's support (the ``support`` attribute) or
    calls the helpers that combine supports (``_plan``, ``_meet``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                else node.id if isinstance(node, ast.Name) else None)
        if name in ("support", "_plan", "_meet"):
            found.append(f"{node.lineno}: {name}")
    return found


def test_only_geometry_propagates_supports():
    """The jets' supports are combined by the jet arithmetic alone: the
    other modules read a block's support off its arrays and hand it to the
    jets, and the derivative table keeps no rule of its own (no
    ``meets``)."""
    assert support_reads("a = F.support\nF.support = s\nb = _plan(m, s)\n") \
        == ["1: support", "3: _plan"]
    found = {path.name: support_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "geometry.py"}
    assert {name: f for name, f in found.items() if f} == {}
    foliation = ast.parse((PACKAGE / "foliation.py").read_text())
    assert "meets" not in {node.name for node in ast.walk(foliation)
                           if isinstance(node, ast.FunctionDef)}


def test_no_jet_is_scanned_for_zero():
    """The supports decide which jets are None; no jet is scanned for zero
    (PointField has no ``is_zero``, and ``foliation.py`` calls no
    ``.is_zero()``), and no block-group build (``PairBuild``) stands
    between a three-index formula and its derivative table."""
    geometry_tree = ast.parse((PACKAGE / "geometry.py").read_text())
    point_field = next(node for node in geometry_tree.body
                       if isinstance(node, ast.ClassDef)
                       and node.name == "PointField")
    assert "is_zero" not in {node.name for node in point_field.body
                             if isinstance(node, ast.FunctionDef)}
    foliation = ast.parse((PACKAGE / "foliation.py").read_text())
    calls = [node.lineno for node in ast.walk(foliation)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "is_zero"]
    assert calls == []
    assert "PairBuild" not in {node.name for node in ast.walk(foliation)
                               if isinstance(node, ast.ClassDef)}


def test_one_chunk_loop():
    """Every kept entry is built through ``foliation._chunked``, which skips
    the chunks that cannot write: nothing else in the package reaches
    ``FrameBatch.chunks``, so no second build path bypasses the skip."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            found += [(path.name, getattr(top, "name", None))
                      for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "chunks"]
    assert found == [("foliation.py", "_chunked")]


def layout_reads(source: str, names: set[str]) -> list[str]:
    """Where ``source`` names one of ``names`` (an attribute or a name), or
    broadcasts a scalar zero (``broadcast_to`` of a constant 0 or of a
    ``zeros`` call), which is how a zero-strided zero is built."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in names:
            found.append(f"{node.lineno}: {name}")
        if (isinstance(node, ast.Call) and node.args
                and ast.unparse(node.func).endswith("broadcast_to")):
            zero = node.args[0]
            if (isinstance(zero, ast.Constant) and zero.value == 0) or (
                    isinstance(zero, ast.Call)
                    and ast.unparse(zero.func).endswith("zeros")):
                found.append(f"{node.lineno}: zero broadcast")
    return found


def test_only_foliation_builds_zero_strided_entries():
    """A kept entry that no chunk writes is a zero-strided zero, which only
    ``foliation.py`` builds and recognises (``exact_zero``): no other
    module reads strides or broadcasts a zero, and the checks reach no
    array layout at all, so they test for a zero only through
    ``exact_zero``."""
    assert layout_reads("a = x.strides\nb = np.broadcast_to(0.0, s)\n"
                        "c = np.broadcast_to(np.zeros(()), s)\n"
                        "d = np.broadcast_to(g, s)\n", {"strides"}) \
        == ["1: strides", "2: zero broadcast", "3: zero broadcast"]
    layout = {"strides", "flat", "base", "flags", "broadcast_to",
              "as_strided"}
    found = {path.name: layout_reads(path.read_text(),
                                     layout if path.name == "checks.py"
                                     else {"strides", "as_strided"})
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "foliation.py"}
    assert {name: f for name, f in found.items() if f} == {}
    checks = ast.parse((PACKAGE / "checks.py").read_text())
    assert "exact_zero" in {node.id for node in ast.walk(checks)
                            if isinstance(node, ast.Name)}


def test_commands_build_no_polynomial_above_degree_2(monkeypatch):
    """The model fields have degree <= 2, the CD trials are 2-jets and the
    spectra move packed exponents, so no command needs a polynomial of
    higher degree."""
    init, degrees = geometry.Polynomial.__init__, []

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        degrees.append(self.degree())
    monkeypatch.setattr(geometry.Polynomial, "__init__", recorded)
    highest = {}
    for args in (["verify", "--all", "--points", "8"],
                 ["cd", "heisenberg-quat", "--K", "0", "--trials", "5"],
                 ["spectrum", "complex-hopf-s3", "--degree", "6"]):
        degrees.clear()
        assert CliRunner().invoke(main, args).exit_code == 0, args
        assert degrees, args
        highest[" ".join(args)] = max(degrees)
    assert max(highest.values()) <= 2, highest


def test_readme_library_tour_states_its_values():
    """Runs the ``## Library tour`` block; each bare expression must give
    the value its trailing comment states ("4.0", or "12 * Identity")."""
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", README,
                      re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                     namespace)
        comment = lines[stmt.end_lineno - 1].split("#", 1)[1].split()
        want = float(comment[0])
        if comment[1:3] == ["*", "Identity"]:
            want = want * np.eye(len(value))
        np.testing.assert_allclose(value, want, rtol=0, atol=1e-9,
                                   err_msg=ast.unparse(stmt))
        checked += 1
    assert checked == 6

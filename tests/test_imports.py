"""Every import in the package is used, every export has a reader,
nothing in the package integrates with scipy.integrate, solves with
scipy.sparse or imports scipy.stats, only the CLI serialises, no assembler
entry point takes parameters beside the ones its solution carries, and
options that only ever took one value stay constants.

Eight AST scans of src/qcurv.  A name bound by an import statement must be
read somewhere in its module, or be listed in the module's __all__
(``from __future__`` imports are exempt).  A name in a module's __all__
must be read by another module of the package, by bench/, by demos/ or by
the acceptance gates, and any other public top-level function or class by
those or by its own module: the unit tests alone do not keep a public name
alive.
No module imports or reads scipy.integrate: the package has one quadrature
layer, the fixed panels of kernels.gauss_panels.  No module imports or
reads scipy.sparse: the periodic profile's Newton steps are dense LU
solves on a few dozen cosine modes.  No module imports or reads
scipy.stats: importing it after qcurv.cli takes 0.3-0.5 s (2-core Intel
Xeon, scipy 1.17), every CLI run would pay it, and it is more than the
Monte Carlo guard's time that Sobol' points from its qmc module would
save.  Only cli.py imports json, io or csv: the library returns data and
the CLI alone decides how it is written.  No public assembler function
whose first parameter is an ApproxSolution takes a `prm`: the solution's
own u.prm is the only one its numbers are right for.  No public signature
or class brings back an option in REMOVED_OPTIONS.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qcurv"
# public names the README documents as the API, kept without another reader
README_API = {"assembler.dual_apply", "assembler.mc_probe"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import numpy as np\nfrom math import pi, tau\n"
           "__all__ = ['tau']\nx = pi\n")
    assert unused_imports(src) == ["line 2: np"]


def exported(source: str) -> list[str]:
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def package_reads(source: str) -> set[str]:
    """"module.name" for each qcurv name the source reads: imported by name
    from a module (absolutely or relatively), or read as an attribute of a
    module it imported."""
    tree = ast.parse(source)
    modules, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if not node.level:
                if mod.split(".")[0] != "qcurv":
                    continue
                mod = mod.partition(".")[2]
            for alias in node.names:
                if mod:
                    out.add(f"{mod}.{alias.name}")
                else:   # from qcurv import toda as t
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qcurv" and len(parts) == 2 and alias.asname:
                    modules[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.add(f"{modules[node.value.id]}.{node.attr}")
    return out


def public_names(source: str) -> list[str]:
    """The names in a module's __all__, then its other public top-level
    functions and classes."""
    names = exported(source)
    return names + [node.name for node in ast.parse(source).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in names]


def unread_exports(package: dict[str, str], readers: list[str]) -> list[str]:
    """Names in a package module's __all__ that no other package module and
    no reader source reads, then the module's other public top-level
    functions and classes that neither those nor the module itself reads.
    `package` maps module names to sources."""
    outside = set().union(*map(package_reads, readers))
    reads = {mod: package_reads(source) for mod, source in package.items()}
    unread = []
    for mod, source in sorted(package.items()):
        seen = outside.union(*(r for other, r in reads.items() if other != mod))
        tree = ast.parse(source)
        own = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        listed = exported(source)
        unread += [f"{mod}.{name}" for name in public_names(source)
                   if (name in listed or name not in own)
                   and f"{mod}.{name}" not in seen]
    return unread


def test_every_export_has_a_reader():
    # the package's own __all__ re-exports params names
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in SRC.glob("*.py") if p.name != "__init__.py"}
    readers = [p.read_text(encoding="utf-8") for p in
               sorted(ROOT.glob("bench/*.py")) + sorted(ROOT.glob("demos/*.py"))
               + [ROOT / "tests" / "test_acceptance.py"]]
    unread = unread_exports(package, readers)
    assert [name for name in unread if name not in README_API] == []


def test_scan_flags_an_unread_export():
    package = {"a": "__all__ = ['f', 'g', 'h', 'k']\ndef f(): g()\n",
               "b": "from .a import f\n",
               "c": ("from . import a as m\nm.k\ndef p(): q()\n"
                     "def q(): pass\nclass R: pass\nclass S: pass\n"
                     "def t(): pass\ndef _u(): pass\n"),
               "d": "from .c import R\n"}
    readers = ["from qcurv import a\nfrom qcurv.c import x\nx.h\n",
               "from qcurv import c as m\nm.t\n"]
    # g is read only inside its own module, h only as an attribute of
    # something that is not a package module; outside any __all__, q is
    # read by its own module, R by another and t by a reader, while p and
    # S are read nowhere and _u is private
    assert unread_exports(package, readers) == ["a.g", "a.h", "c.p", "c.S"]


def scipy_uses(source: str, sub: str) -> list[int]:
    """Lines that import scipy.<sub>, a name from it, or read it as
    scipy.<sub>."""
    full = f"scipy.{sub}"
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
            if node.module == "scipy":
                names += [f"scipy.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == sub
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            names = [full]
        else:
            continue
        if any(name == full or name.startswith(full + ".") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_integrate(path):
    # one quadrature layer: the package integrates on kernels.gauss_panels
    assert scipy_uses(path.read_text(encoding="utf-8"), "integrate") == []


def test_scan_flags_scipy_integrate():
    src = ("import scipy.integrate\nfrom scipy.integrate import quad\n"
           "from scipy import integrate as si\nfrom scipy import special\n"
           "import scipy\nscipy.integrate.quad\n"
           "from scipy.integrate._quadpack_py import quad\n"
           "import scipy.interpolate\n")
    assert scipy_uses(src, "integrate") == [1, 2, 3, 6, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_sparse(path):
    # the periodic profile takes dense Newton steps on a few dozen cosine
    # modes; no Krylov solver or sparse operator comes back
    assert scipy_uses(path.read_text(encoding="utf-8"), "sparse") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_scipy_stats(path):
    # the Monte Carlo guard stratifies with numpy alone: scipy.stats (for
    # its qmc module) costs more to import than its points would save
    assert scipy_uses(path.read_text(encoding="utf-8"), "stats") == []


def test_scan_flags_scipy_sparse():
    src = ("from scipy.sparse.linalg import LinearOperator, gmres\n"
           "import scipy.sparse as sp\nfrom scipy import sparse\n"
           "import scipy\nscipy.sparse.linalg.gmres\n"
           "from scipy import special\nimport scipy.sparsetools\n"
           "from scipy.linalg import solve\n")
    assert scipy_uses(src, "sparse") == [1, 2, 3, 5]


SERIALISERS = {"json", "io", "csv"}


def serialiser_imports(source: str) -> list[str]:
    """The json, io and csv modules the source imports (absolutely), as
    "line N: module"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] in SERIALISERS]
    return found


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_only_the_cli_serialises(path):
    assert serialiser_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_a_serialiser_import():
    src = ("import json\nfrom io import StringIO\nimport csv as c\n"
           "import numpy.io\nfrom json.decoder import JSONDecodeError\n"
           "from . import io\nimport jsonschema\n")
    assert serialiser_imports(src) == ["line 1: json", "line 2: io",
                                       "line 3: csv",
                                       "line 5: json.decoder"]


def prm_overrides(source: str) -> list[str]:
    """Public module-level functions whose first parameter is annotated
    ApproxSolution and that take a parameter named prm."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args.posonlyargs + node.args.args
        if not args or args[0].annotation is None:
            continue
        if ast.unparse(args[0].annotation).strip("'\"") != "ApproxSolution":
            continue
        if any(a.arg == "prm" for a in args + node.args.kwonlyargs):
            out.append(node.name)
    return out


def test_no_prm_override_in_assembler():
    source = (SRC / "assembler.py").read_text(encoding="utf-8")
    assert prm_overrides(source) == []


def test_scan_flags_a_prm_override():
    src = ("def f(u: ApproxSolution, x, prm=None): pass\n"
           "def g(u: ApproxSolution, x): pass\n"
           "def h(points, prm): pass\n"
           "def _k(u: ApproxSolution, prm): pass\n"
           "def m(u: 'ApproxSolution', *, prm): pass\n"
           "class A:\n    def f(self, u: ApproxSolution, prm): pass\n")
    assert prm_overrides(src) == ["f", "m"]


# options that had one value outside the tests, now constants of their
# modules: (module, owner, parameter or field); a None name marks an owner
# that is gone altogether
REMOVED_OPTIONS = {
    ("kernels", "Calibration", None),
    ("kernels", "calibrate_cyl_kernel", None),
    ("assembler", "dual_apply_radial", "kappa"),
    ("assembler", "ApproxSolution", "cut_on"),
    ("assembler", "ApproxSolution", "cut_off"),
    ("assembler", "ApproxSolution.collinear", "tol"),
    ("assembler", "ApproxSolution.axisymmetric", "tol"),
    ("assembler", "assemble", "levels"),
    ("assembler", "assemble", "solver_tol"),
    ("assembler", "assemble", "tau"),
    ("assembler", "assemble", "M"),
    ("assembler", "ApproxSolution", "base_towers"),
    ("assembler", "ApproxSolution", "baselines"),
    ("assembler", "WeightSpec", "zeta1"),
    ("assembler", "residual", "mc_samples"),
    ("balancing", "solve_B1", "max_iter"),
    ("balancing", "solve_B1", "tol"),
    ("balancing", "balance", "tol"),
    ("balancing", "SingularSet.dim", "self"),
    ("bubbles", "tower_eval", "half"),
    *(("cli", f"cmd_{c}", "tol") for c in (
        "kernel", "delaunay", "constants", "balance", "assemble_residual",
        "toda")),
    ("balancing", "balance_jacobian", "kernel_tol"),
    ("bubbles", "TowerConfig", "tau"),
    ("delaunay", "CylSolution", "krylov_iters"),
    ("delaunay", "solve_periodic", "max_iter"),
    ("delaunay", "solve_periodic", "init_factor"),
    ("delaunay", "solve_periodic", "tol"),
    ("delaunay", "neck_sweep", "tol"),
    ("bubbles", "TowerConfig.scales", "self"),
    ("delaunay", "bifurcation_half_period", "w_max"),
    ("interactions", "oracle_fit_constants", "d"),
    ("interactions", "oracle_fit_constants", "tol"),
    ("interactions", "const_A1", "tol"),
    ("interactions", "interaction_constants", "tol"),
    ("interactions", "psi", "tol"),
    ("interactions", "interaction_faraway", None),
    ("kernels", "fixed_point_defect", None),
    ("params", "gamma_fn", None),
}


def public_options(source: str) -> set[tuple[str, str | None]]:
    """(owner, None) for each public module-level function and class, and
    (owner, name) for each parameter of a public function or method and
    each annotated field of a public class; a method's owner is
    "Class.method"."""
    def params(fn):
        a = fn.args
        return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]

    out = set()
    for node in ast.parse(source).body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        out.add((node.name, None))
        if isinstance(node, ast.FunctionDef):
            out |= {(node.name, p) for p in params(node)}
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                out.add((node.name, item.target.id))
            elif (isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")):
                out |= {(f"{node.name}.{item.name}", p) for p in params(item)}
    return out


@pytest.mark.parametrize("module", sorted({m for m, _, _ in REMOVED_OPTIONS}))
def test_removed_options_stay_removed(module):
    found = public_options((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert sorted((o, n) for m, o, n in REMOVED_OPTIONS
                  if m == module and (o, n) in found) == []


def test_scan_flags_a_removed_option():
    src = ("class Calibration:\n    kappa: float\n"
           "class A:\n    x: int = 1\n    def f(self, tol=1e-12): pass\n"
           "def g(u, levels=6): pass\n"
           "def _h(kappa=None): pass\n")
    assert public_options(src) == {
        ("Calibration", None), ("Calibration", "kappa"), ("A", None),
        ("A", "x"), ("A.f", "self"), ("A.f", "tol"), ("g", None),
        ("g", "u"), ("g", "levels")}

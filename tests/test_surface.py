import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "permqmc"

# Public names that no module of the package calls, each kept for a reason.
UNCALLED_BY_DESIGN = {
    "bound_constants": "paper constants pinned by tests",
    "c_prime": "paper constant pinned by tests",
    "weight_to_config": "the inverse of the CLI's config loader",
    "load_cubature": "the inverse of save_cubature; the CLI reads both rule formats "
                     "through load_rule",
}


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts], node
    return [], None


def test_every_exported_name_is_used_in_the_package():
    """A name in a module's ``__all__`` is referenced somewhere in the
    package outside its own definition and the export lists, or is
    allow-listed with a reason; names only tests use belong in the tests."""
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    exported = {}
    used = set()
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        names, all_node = _exported(tree)
        exported.update({name: path.name for name in names})
        for stmt in tree.body:
            if stmt is all_node:
                continue
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                else:
                    continue
                if ref != owner:
                    used.add(ref)
    assert len(exported) > 40
    unused = sorted(f"{mod}:{name}" for name, mod in exported.items()
                    if name not in used and name not in UNCALLED_BY_DESIGN)
    assert not unused, f"exported but unused in the package: {unused}"
    stale = sorted(name for name in UNCALLED_BY_DESIGN if name in used or name not in exported)
    assert not stale, f"allow-listed names that are used or gone: {stale}"


# Public methods and properties of exported classes that no module of the
# package reads, each kept for a reason.
UNREAD_METHODS_BY_DESIGN: dict[str, str] = {}


def test_every_public_method_is_used_in_the_package():
    """A public method or property of a class in some ``__all__`` is
    referenced as an attribute somewhere in the package outside its own
    definition, or is allow-listed with a reason; methods only tests use
    belong in the tests.  Dunders are exempt."""
    methods = {}
    used = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr != owner:
                used.add(child.attr)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names, _ = _exported(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in names:
                methods.update({f"{cls.name}.{fn.name}": fn.name for fn in cls.body
                                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")})
        visit(tree, None)
    assert len(methods) > 30
    unused = sorted(qual for qual, name in methods.items()
                    if name not in used and qual not in UNREAD_METHODS_BY_DESIGN)
    assert not unused, f"public methods unused in the package: {unused}"
    stale = sorted(qual for qual in UNREAD_METHODS_BY_DESIGN
                   if qual not in methods or methods[qual] in used)
    assert not stale, f"allow-listed methods that are used or gone: {stale}"


def test_import_does_not_load_scipy():
    """The package's only runtime dependency is numpy."""
    code = "import sys, permqmc; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=SRC.parent)
    assert out.stdout.strip() == "False"


def test_no_scipy_import_in_the_package():
    """Tail sums come from weights._hurwitz_zeta; no module of the package
    imports scipy."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) > 5
    assert not offenders, f"scipy imported at {offenders}"


def test_numpy_fft_only_in_the_correlation_helper():
    """Every FFT of the package runs in kernels._cyclic_correlation, whose
    power-of-two lengths are what kernels._fft_rho bounds: no other code
    names numpy's fft module or imports from it."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "kernels.py":
            helper = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "_cyclic_correlation"]
            assert len(helper) == 1
            allowed = {id(node) for node in ast.walk(helper[0])}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                hit = id(node) not in allowed
            elif isinstance(node, ast.Import):
                hit = any(alias.name.startswith("numpy.fft") for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = ((node.module or "").startswith("numpy.fft")
                       or (node.module == "numpy" and any(a.name == "fft" for a in node.names)))
            else:
                continue
            if hit:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"numpy.fft used outside _cyclic_correlation at {offenders}"


def test_no_engine_reads_beta0():
    """beta0 is the unit of the space: outside ``weights.py`` and the class
    ``KernelSpec``, which normalizes once, no code of the package reads an
    attribute ``beta0``."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "weights.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = {id(node) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "KernelSpec"
                for node in ast.walk(cls)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "beta0"
                      and id(node) not in skip]
    assert len(list(SRC.glob("*.py"))) > 5
    assert not offenders, f"beta0 read outside weights.py and KernelSpec at {offenders}"

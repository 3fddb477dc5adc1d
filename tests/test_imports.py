"""Import hygiene, checked on the AST: no module of the package keeps an
import it does not use, every public export resolves, every function or
method, private ones included, has a caller in the package or a stated
reason to stay, the coding of field elements is read only inside
wgauss/algebra/ or with a stated reason, outside wgauss/algebra/ no module
imports another's private name, and every import of a package module inside
a function has a stated reason."""

import ast
from pathlib import Path

import pytest

import wgauss.algebra

SRC = Path(wgauss.algebra.__file__).resolve().parents[1]
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_level_imports_are_used(path):
    assert _unused_imports(path) == []


def test_algebra_exports_resolve():
    missing = [n for n in wgauss.algebra.__all__ if not hasattr(wgauss.algebra, n)]
    assert missing == []


# Names that no code under src/ refers to, each with its reason to stay.
KEEP = {
    "in_smooth_Wn": "the paper's smooth locus of W_n, checked by the acceptance tests",
    "in_Rnk": "the paper's (n+k)-intersection locus R_(n,k), as a predicate",
    "in_multiple_locus": "the paper's multiple locus, as a predicate",
    "phi_L": "the paper's morphism of a linear system to P^r",
    "dual_samples": "the paper's dual hypersurface of a linear system, sampled",
    "subdivisors": "oracle for the fiber walk's rank-filtered subdivisors",
    "exhaustive_singular_search": "brute-force oracle for the smoothness certificates",
    "resultant": "oracle for gcd degrees, and the body of discriminant",
    "discriminant": "oracle for the branch forms",
    "divisor_from_json": "reads the divisor JSON that Divisor.to_json writes",
    "infinity_points": "helper that tests use to build divisors at infinity",
    "weierstrass_points": "helper that tests use to build Weierstrass divisors",
    "mult_of": "helper that tests use to read a multiplicity",
    "contains_vector": "helper that tests use to check span containment",
    "_branch_parameter": "the body of dual_samples: a branch root as a parameter",
}


def _unreferenced_names():
    """Functions and methods under src/, private ones included, that no code
    there refers to by name (a Name or an attribute); one that only such code
    refers to counts as unreferenced too.  Dunder methods are skipped.

    The check goes by name only: a method whose name another class also
    defines, as a shared interface does, counts as referenced by every call
    of that name, so an unused one cannot be caught here."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))]
    defs = [(f.name, f) for t in trees for node in t.body
            for f in (node.body if isinstance(node, ast.ClassDef) else [node])
            if isinstance(f, ast.FunctionDef)]
    dead = set()
    while True:
        skip = {id(f) for name, f in defs if name in dead}
        refs, todo = set(), list(trees)
        while todo:
            node = todo.pop()
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            todo.extend(ast.iter_child_nodes(node))
        now = {name for name, _ in defs
               if not (name.startswith("__") and name.endswith("__")) and name not in refs}
        if now == dead:
            return dead
        dead = now


def test_public_names_have_a_caller_or_a_reason():
    # a public name that only its own tests call is an alias to delete; a
    # keep-list entry that gained a caller or lost its definition is stale
    assert sorted(_unreferenced_names()) == sorted(KEEP)


# The coding of field elements (residues, Zech logs or coefficient tuples)
# is chosen by each field when it is made and stays behind wgauss/algebra/:
# outside it, only these functions read it, each with its reason.
CODING = {"_encode", "_decode", "kernel", "_from_code"}
CODING_READERS = {
    ("sections.py", "_residue_zeros"):
        "solves a genus-4 sample plane on F_p residues, pulling the cubic back "
        "straight into the field's kernel codes",
    ("sections.py", "_orbit_walk"):
        "conjugates the points of one pencil member per Frobenius orbit with "
        "the kernel's frob on their codes",
}


def _top_level_units(tree):
    """(name, node) of each function and method, and ("<module>", node) of
    every other statement at module level."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                yield f"{node.name}.{getattr(f, 'name', '<body>')}", f
        else:
            yield getattr(node, "name", "<module>"), node


def test_field_coding_stays_in_the_algebra_layer():
    readers = set()
    for path in MODULES:
        if path.parent.name == "algebra":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, unit in _top_level_units(tree):
            if any(isinstance(n, ast.Attribute) and n.attr in CODING for n in ast.walk(unit)):
                readers.add((path.name, name))
    assert readers == set(CODING_READERS)


def _package_imports(path):
    """(node, imported module as a dotted name under wgauss, at module
    level?) for each import of a package module in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    package = list(path.relative_to(SRC).parent.parts)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) - node.level + 1]
            name = ".".join(base + ([node.module] if node.module else []))
            yield node, name, id(node) in top
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "wgauss":
                    yield node, alias.name.partition(".")[2], id(node) in top


def test_no_private_name_crosses_a_module_outside_the_algebra_layer():
    found = set()
    for path in MODULES:
        if path.parent.name == "algebra":
            continue
        for node, _, _ in _package_imports(path):
            if isinstance(node, ast.ImportFrom):
                found |= {(path.name, a.name) for a in node.names
                          if a.name.startswith("_") and not a.name.startswith("__")}
    assert found == set()


# Imports of a package module made inside a function, each with its reason;
# every other import of the package stands at module level.
FUNCTION_IMPORTS = {
    ("algebra/fields.py", "algebra.poly"):
        "poly builds on fields' elements, so an extension's embeddings reach "
        "poly's root finder at call time",
    ("curves.py", "sections"):
        "sections builds on curves' HomForm and ProjectivePoint, so the curve "
        "classes reach their point tables, samplers and certificate at call time",
    ("harness.py", "brillnoether"):
        "only the bn-table command uses it",
}


def test_function_level_imports_have_a_reason():
    found = {(str(path.relative_to(SRC)), name)
             for path in MODULES for _, name, at_top in _package_imports(path) if not at_top}
    assert found == set(FUNCTION_IMPORTS)

"""Every export of metafib sits on a route: a CLI command, an identity of
``verify`` or a benchmark operation.

An AST walk starts from ``cli._cmd_*``, ``verify.IDENTITIES`` and the
metafib names ``perfbench/ops.py`` calls, and follows the names each
reached body uses.  A name counts only as written: a private alias of an
export reaches the function's body but not its public name.  Receivers are
untyped, so a method is followed by its attribute name, and dunder methods
with their class.  Annotations are never evaluated, so they reach nothing.
"""

import ast
import pathlib

import pytest

import metafib

PACKAGE = pathlib.Path(metafib.__file__).parent
OPS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "ops.py"

# The tree-oracle prefix count: tests use it as the independent huge-n check.
UNROUTED = {("trees", "leaves_in_prefix")}


class _Refs(ast.NodeVisitor):
    """Names and attributes one body uses, annotations skipped."""

    def __init__(self):
        self.names, self.attrs = set(), set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name):
            self.attrs.add((node.value.id, node.attr))
        else:
            self.attrs.add((None, node.attr))
        self.visit(node.value)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    def visit_arguments(self, node):
        for default in (*node.defaults, *node.kw_defaults):
            if default is not None:
                self.visit(default)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_ClassDef(self, node):
        for child in (*node.decorator_list, *node.bases, *node.body):
            if not isinstance(child, ast.FunctionDef) or child.name.startswith("__"):
                self.visit(child)


def _index():
    """Per (module, name): the body a reference runs, methods as
    (module, "Class.name"); module aliases and imported names per module."""
    bodies, modules, imported = {}, {}, {}
    for path in PACKAGE.glob("*.py"):
        mod = path.stem
        modules[mod] = {}
        aliases = []
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bodies[mod, stmt.name] = stmt
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        bodies[mod, f"{stmt.name}.{item.name}"] = item
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        bodies[mod, target.id] = stmt.value
                        if isinstance(stmt.value, ast.Name):
                            aliases.append((target.id, stmt.value.id))
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if stmt.module is None:
                        modules[mod][local] = alias.name
                    else:
                        imported[mod, local] = (stmt.module, alias.name)
        for alias, name in aliases:
            if isinstance(bodies.get((mod, name)), ast.FunctionDef):
                bodies[mod, alias] = bodies[mod, name]
    return bodies, modules, imported


def _roots(bodies):
    roots = {key for key in bodies if key[0] == "cli" and key[1].startswith("_cmd_")}
    roots.add(("verify", "IDENTITIES"))
    tree = ast.parse(OPS.read_text(encoding="utf-8"))
    metafib_modules = {alias.asname or alias.name: alias.name
                       for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.module == "metafib"
                       for alias in node.names}
    roots |= {(metafib_modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in metafib_modules}
    return roots


def reach(roots) -> set:
    """Every (module, name) body the walk from roots runs, roots included."""
    bodies, modules, imported = _index()
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen or key not in bodies:
            continue
        seen.add(key)
        mod = key[0]
        refs = _Refs()
        refs.visit(bodies[key])
        for name in refs.names:
            todo.append(imported.get((mod, name), (mod, name)))
        for base, attr in refs.attrs:
            if base in modules[mod]:
                todo.append((modules[mod][base], attr))
            else:
                todo += [k for k in bodies if k[1].endswith(f".{attr}")]
    return seen


def reached() -> set:
    return reach(_roots(_index()[0]))


def exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_export_sits_on_a_route():
    unrouted = exports() - reached() - UNROUTED
    assert sorted(f"{mod}.{name}" for mod, name in unrouted) == []


def test_the_named_exceptions_are_exports_still_off_every_route():
    assert UNROUTED <= exports()
    assert not UNROUTED & reached()


# Pairs of routes that are compared with each other, each side as the roots
# its comparison calls, and where the comparison is made.  Were one side
# built on the other, or both on one helper, the comparison would check a
# route against itself, so the two may share only the limit check.
SHARED = {("limits", "check")}
TABLE = (("sequences", "SequenceTable"), ("sequences", "SequenceTable.values"))
COMPARED = [
    ("run-length factorization rebuilds the leaf stream",
     (("words", "ruler_factorization"),), (("words", "dword_prefix"),)),
    ("composition counts equal the leaf counts", (("compositions", "counts_up_to"),), TABLE),
    ("test_counts_match_product_generating_function",
     (("compositions", "counts_up_to"),), (("series", "gf_As"),)),
    ("leaf-position generating function", (("series", "gf_Ps"),), (("sequences", "p_window"),)),
    ("leaf-count generating functions", (("series", "gf_A_from_D"),), TABLE),
    ("leaf-stream generating functions", (("series", "gf_Ds_sum"),), TABLE),
    ("ruler generating function", (("series", "gf_ruler"),), (("sequences", "ruler"),)),
    *(("closed-form evaluators match the recurrence", (("sequences", name),), TABLE)
      for name in ("as_via_a0", "as_descent", "a_window", "a0_fast", "a1_fast")),
    ("p marks the first occurrence in a", (("sequences", "p"),), TABLE),
    ("p differences: ruler plus shift at powers of two",
     (("sequences", "p"),), (("sequences", "ruler"), ("sequences", "is_power_of_two"))),
    ("tree oracle leaf flags equal d", (("trees", "is_leaf_oracle"),), TABLE),
    ("tree oracle leaf counts equal a", (("trees", "leaf_count_scan"),), TABLE),
    ("a equals the count of leaf flags", (("sequences", "d"),), TABLE),
    ("word blocks rebuild the leaf stream", (("words", "dword_prefix"),), TABLE),
    ("word blocks rebuild the leaf stream", (("sequences", "p"),), (("words", "dword_prefix"),)),
    ("morphism fixed point equals the shift-0 stream",
     (("words", "morphism_fixed_point"),), (("words", "dword_prefix"),)),
    ("reversal ties the two word families", (("words", "word_E"),), (("words", "word_D"),)),
    ("leaf-stream generating functions", (("series", "gf_Dn"),), (("words", "word_D"),)),
    ("composition enumeration matches the counts",
     (("compositions", "enumerate_compositions"),), (("compositions", "count_compositions"),)),
    ("greedy optimum equals the exhaustive optimum",
     (("codes", "_M_greedy"),), (("codes", "M_oracle"),)),
    ("greedy level counts dominate every code",
     (("codes", "greedy_tree"),), (("codes", "enumerate_codes"),)),
    # the shift-0 bridge compares the greedy count with the table too
    ("peak pair count equals the shift-1 sequence", (("codes", "_M_greedy"),), TABLE),
    ("peak pair count equals the shift-1 sequence",
     (("codes", "a_max"),), (("codes", "_M_greedy"),)),
    ("fixed-slack pair count equals the shift-0 sequence",
     (("codes", "b_seq"),), (("codes", "_M_greedy"),)),
    ("shrink inverts greedy growth",
     (("codes", "shrink"),), (("codes", "greedy_tree_unbounded"),)),
    ("partition ones equal twice the pair optimum",
     (("codes", "max_ones_partition_brute"),), (("codes", "_M_greedy"),)),
    ("level counts round-trip through codes",
     (("codes", "counts_to_code"),), (("codes", "level_counts"),)),
]


@pytest.mark.parametrize("where, one, other", COMPARED,
                         ids=[f"{one[0][1]}-{other[0][1]}" for _, one, other in COMPARED])
def test_compared_routes_share_only_the_limit_check(where, one, other):
    assert reach(one) & reach(other) <= SHARED, where


# Compared routes that share code today, each with exactly what they share
# beyond SHARED.  The series builders decode one packed int each through
# one helper (the "d gf" coupling of CHANGES.md); the served M and the
# greedy count share the feasible band, so only M_oracle checks the band.
PACKED = {("series", name) for name in
          ("_packing", "_check_order", "TruncatedSeries", "TruncatedSeries._adopt")}
COUPLED = [
    ("leaf-stream generating functions",
     (("series", "gf_Ds_nested"),), (("series", "gf_Ds_sum"),), PACKED),
    ("leaf-stream generating functions",
     (("series", "gf_D0"),), (("series", "gf_Ds_sum"),), PACKED),
    ("leaf-count generating functions",
     (("series", "gf_As"),), (("series", "gf_A_from_D"),), PACKED),
    ("greedy optimum equals the exhaustive optimum",
     (("codes", "M"),), (("codes", "_M_greedy"),), {("codes", "_feasible"), ("codes", "_ceil_lg")}),
]


@pytest.mark.parametrize("where, one, other, shared", COUPLED,
                         ids=[f"{one[0][1]}-{other[0][1]}" for _, one, other, _ in COUPLED])
def test_coupled_routes_share_exactly_what_is_listed(where, one, other, shared):
    assert reach(one) & reach(other) - SHARED == shared, where

"""The Setting object: what it holds, what it computes lazily, and the
calling convention it stands for across the source tree."""

import ast
import pathlib
import re

from qhecke import localize
from qhecke.config import build_setting
from qhecke.localize import tangent_n
from qhecke.repdata import fiber_weights
from qhecke.presets import preset_skew

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qhecke"
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"

# functions that take the Λ table itself: none, since localization works in
# the Λ-cleared basis, where the fixed-point products are the plain ones
TAKE_LAMBDAS = set()

# coefficient-level sums that keep their own loops for speed: none, since
# Weyl images and fixed-point rows sum through the kernel's `kaddmul`
KERNEL_MODULE = "_kernel_py"
OWN_SPARSE_SUMS = set()
# the modules that know the packed-monomial keys of `Poly.d`
KEY_MODULES = {"polyops", KERNEL_MODULE}


def _functions():
    """(module, function name, argument names) for every function in src."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                yield path.stem, node.name, names


def _is_group_matrix(node) -> bool:
    """`group.matrix(...)` or `<anything>.group.matrix(...)`."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    return node.func.attr == "matrix" and (
        (isinstance(owner, ast.Name) and owner.id == "group")
        or (isinstance(owner, ast.Attribute) and owner.attr == "group")
    )


def group_matrix_substitutions(source: str, module: str) -> list:
    """(module, function, line) of every `substitute_linear` call that is
    handed a group element's matrix, directly or through a local name.
    Group elements act by index (`weyl_image`); substitute_linear is left to
    matrices that are not group elements, the divided differences'
    reflections and the KLR oracle's own permutation matrices."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = {
            t.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and _is_group_matrix(node.value)
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "substitute_linear"
                and any(
                    _is_group_matrix(a) or (isinstance(a, ast.Name) and a.id in names)
                    for a in node.args
                )
            ):
                out.append((module, fn.name, node.lineno))
    return out


def _qualified_functions(tree, prefix=""):
    """(qualified name, node) of every function, methods as `Class.name`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _qualified_functions(node, prefix + node.name + ".")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _qualified_functions(node, prefix + node.name + ".")


def _own_nodes(fn):
    """The nodes of a function's body, without those of nested scopes."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    stack = [node for node in fn.body if not isinstance(node, scopes)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, scopes))


def _subscripts(targets) -> set:
    return {
        (ast.unparse(t.value), ast.unparse(t.slice))
        for t in targets
        if isinstance(t, ast.Subscript)
    }


def sparse_sums(source: str, module: str) -> list:
    """(module, function) of every hand-written `d[key] += value` over a
    sparse dict: a function that reads `d.get(key)` and, for the same d and
    key, drops it (`del d[key]`, `d.pop(key...)`) or stores a sum in it
    (`d[key] = ... + ...`).  `polyops.add_term` is the one such loop."""
    out = []
    for name, fn in _qualified_functions(ast.parse(source)):
        reads, writes = set(), set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
                pair = (ast.unparse(node.func.value), ast.unparse(node.args[0]))
                if node.func.attr == "get":
                    reads.add(pair)
                elif node.func.attr == "pop":
                    writes.add(pair)
            elif isinstance(node, ast.Delete):
                writes |= _subscripts(node.targets)
            elif isinstance(node, ast.Assign) and any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
                for n in ast.walk(node.value)
            ):
                writes |= _subscripts(node.targets)
        if reads & writes:
            out.append((module, name))
    return out


def poly_key_uses(source: str, module: str) -> list:
    """(module, line) of every read of an attribute `d`, unless it is
    `self.d`, and of every `Poly(...)` call given terms beside n.  Outside
    `polyops` no class is a Poly, so `self.d` there belongs to something
    else (the KLR oracle's dimension)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "d":
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                out.append((module, node.lineno))
        elif isinstance(node, ast.Call) and len(node.args) + len(node.keywords) > 1:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Poly":
                out.append((module, node.lineno))
    return sorted(out)


def _referenced_names(node) -> dict:
    """How often each name is read, as a bare name or as an attribute."""
    counts: dict = {}
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            counts[n.id] = counts.get(n.id, 0) + 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] = counts.get(n.attr, 0) + 1
    return counts


def setting_unpacks(source: str, module: str) -> list:
    """(module, line) of every place that reads a name `setting` as a
    sequence: a tuple or list target assigned from it, a loop or starred
    expression over it, or `tuple`, `list` or `iter` called on it."""

    def is_setting(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "setting"

    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            hit = is_setting(node.value) and any(
                isinstance(t, (ast.Tuple, ast.List)) for t in node.targets
            )
        elif isinstance(node, (ast.For, ast.comprehension)):
            hit = is_setting(node.iter)
        elif isinstance(node, ast.Starred):
            hit = is_setting(node.value)
        elif isinstance(node, ast.Call):
            hit = (
                isinstance(node.func, ast.Name)
                and node.func.id in {"tuple", "list", "iter"}
                and any(is_setting(a) for a in node.args)
            )
        else:
            continue
        if hit:
            out.append((module, node.lineno))
    return sorted(out)


def uncalled_functions(sources: dict, traced: set) -> list:
    """(module, qualified name) of every function or method in `sources`
    (module -> text) that no code outside its own body names, unless it is
    a dunder or (module, qualified name) is in `traced`."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total: dict = {}
    for tree in trees.values():
        for name, count in _referenced_names(tree).items():
            total[name] = total.get(name, 0) + count
    out = []
    for module, tree in trees.items():
        for qualified, fn in _qualified_functions(tree):
            name = fn.name
            if name.startswith("__") and name.endswith("__") or (module, qualified) in traced:
                continue
            if total.get(name, 0) == _referenced_names(fn).get(name, 0):
                out.append((module, qualified))
    return out


class TestCallingConvention:
    def test_every_function_in_src_has_a_caller(self):
        # a verifier or helper that only the tests call belongs in
        # tests/oracles.py; the tracer's targets count as callers
        sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
        traced = set(re.findall(r"qhecke\.(\w+):([\w.]+)", TRACING.read_text(encoding="utf-8")))
        assert ("localize", "lambda_table") in traced
        assert uncalled_functions(sources, traced) == []

    def test_caller_scan_sees_every_shape(self):
        sources = {
            "a": (
                "def used():\n"
                "    return 1\n"
                "def unused():\n"
                "    return used()\n"
                "def recursive(n):\n"
                "    return recursive(n - 1)\n"
                "def traced():\n"
                "    pass\n"
                "class C:\n"
                "    def __len__(self):\n"
                "        return 0\n"
                "    def method(self):\n"
                "        def inner():\n"
                "            pass\n"
                "        return inner\n"
                "    def orphan(self):\n"
                "        pass\n"
            ),
            "b": "import a\nx = a.C().method\n",
        }
        assert uncalled_functions(sources, {("a", "traced")}) == [
            ("a", "unused"),
            ("a", "recursive"),
            ("a", "C.orphan"),
        ]

    def test_lambdas_only_in_the_matrix_products(self):
        bad = [
            (mod, name)
            for mod, name, args in _functions()
            if "lambdas" in args and name not in TAKE_LAMBDAS
        ]
        assert bad == []

    def test_no_factored_fraction_type_in_src(self):
        # fixed-point entries are Polys and RatFuns; Euler classes divide
        # into RatFuns, so no second fraction type is left
        bad = [
            path.name
            for path in sorted(SRC.glob("*.py"))
            if "FactoredFrac" in path.read_text(encoding="utf-8")
        ]
        assert bad == []

    def test_no_module_element_class_or_row_product_in_src(self):
        # a module element is a {coset index: Poly} dict and each crossing
        # row clears by its one denominator, so no wrapper class, no
        # `.components` and no `clear_rows` come back
        gone = {"ModuleElement", "clear_rows"}
        bad = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    names = {node.attr} & (gone | {"components"})
                elif isinstance(node, ast.Name):
                    names = {node.id} & gone
                elif isinstance(node, ast.alias):
                    names = {node.name, node.asname} & gone
                elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    names = {node.name} & gone
                else:
                    continue
                bad += [(path.name, node.lineno, name) for name in names]
        assert bad == []

    def test_no_counter_in_src(self):
        # Euler classes are packed over the weight table and cut additivity
        # reads root indices; the weight-multiset forms of both are the
        # tests' oracles, so no Counter is left anywhere in src
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "lru_cache" not in text and "of_weights" not in text, path.name
            assert "Counter" not in text, path.name

    def test_no_function_takes_data_beside_table_sub_or_group(self):
        bad = [
            (mod, name)
            for mod, name, args in _functions()
            if "data" in args and args & {"table", "sub", "group"}
        ]
        assert bad == []

    def test_group_elements_act_by_index_not_by_matrix(self):
        bad = [
            site
            for path in sorted(SRC.glob("*.py"))
            for site in group_matrix_substitutions(path.read_text(encoding="utf-8"), path.stem)
        ]
        assert bad == []

    def test_matrix_scan_sees_both_spellings(self):
        source = (
            "def f(table, group, p, g):\n"
            "    mat = group.matrix(g)\n"
            "    p.substitute_linear(mat)\n"
            "    p.substitute_linear(table.group.matrix(g))\n"
            "    p.substitute_linear(other(g))\n"
        )
        assert group_matrix_substitutions(source, "algebra") == [
            ("algebra", "f", 3),
            ("algebra", "f", 4),
        ]

    def test_one_sparse_sum_outside_the_kernel(self):
        found = [
            site
            for path in sorted(SRC.glob("*.py"))
            if path.stem != KERNEL_MODULE
            for site in sparse_sums(path.read_text(encoding="utf-8"), path.stem)
            if site not in OWN_SPARSE_SUMS
        ]
        assert found == [("polyops", "add_term")]

    def test_sparse_sum_scan_sees_every_shape(self):
        source = (
            "def dropped(out, k, v):\n"
            "    cur = out.get(k)\n"
            "    s = v if cur is None else cur + v\n"
            "    if s:\n"
            "        out[k] = s\n"
            "    elif k in out:\n"
            "        del out[k]\n"
            "def popped(out, k, v):\n"
            "    s = out.get(k, 0) + v\n"
            "    out[k] = s\n"
            "    if not s:\n"
            "        out.pop(k)\n"
            "class C:\n"
            "    def summed(self, acc, i, val):\n"
            "        cur = acc.get(i)\n"
            "        acc[i] = val if cur is None else cur + val\n"
            "def memo(cache, g):\n"
            "    v = cache.get(g)\n"
            "    if v is None:\n"
            "        v = cache[g] = build(g)\n"
            "    return v\n"
            "def other_key(out, k, j, v):\n"
            "    cur = out.get(k)\n"
            "    out[j] = cur + v\n"
            "def outer(out, k):\n"
            "    cur = out.get(k)\n"
            "    def inner(v):\n"
            "        out[k] = cur + v\n"
            "    return inner\n"
        )
        assert sparse_sums(source, "m") == [
            ("m", "dropped"),
            ("m", "popped"),
            ("m", "C.summed"),
        ]

    def test_only_polyops_and_the_kernel_see_monomial_keys(self):
        # `Poly.d` is keyed by packed ints; every other module builds
        # polynomials through Poly's constructors and reads them through
        # its methods
        found = [
            site
            for path in sorted(SRC.glob("*.py"))
            if path.stem not in KEY_MODULES
            for site in poly_key_uses(path.read_text(encoding="utf-8"), path.stem)
        ]
        assert found == []

    def test_key_scan_sees_every_shape(self):
        source = (
            "def f(p, q, n, e):\n"
            "    a = p.d\n"
            "    b = q.num.d.items()\n"
            "    c = Poly(n, {e: 1})\n"
            "    g = polyops.Poly(n, terms=dict(x=1))\n"
            "    return Poly(n), Poly.monomial(n, e), RatFun(p, q)\n"
            "class K:\n"
            "    def __init__(self, d):\n"
            "        self.d = d\n"
        )
        assert poly_key_uses(source, "m") == [("m", 2), ("m", 3), ("m", 4), ("m", 5)]

    def test_no_module_unpacks_a_setting(self):
        # a setting is read by its attributes; `Setting.__iter__` is left
        # for the benchmark's worker alone
        found = [
            site
            for path in sorted(SRC.glob("*.py"))
            for site in setting_unpacks(path.read_text(encoding="utf-8"), path.stem)
        ]
        assert found == []

    def test_unpack_scan_sees_every_shape(self):
        source = (
            "def f(setting, other):\n"
            "    datum, _, table, data = setting\n"
            "    [datum, sub, table, data] = setting\n"
            "    for part in setting:\n"
            "        pass\n"
            "    g(*setting)\n"
            "    parts = tuple(setting)\n"
            "    a, b = other\n"
            "    datum = setting.datum\n"
            "    same = setting\n"
        )
        assert setting_unpacks(source, "m") == [("m", 2), ("m", 3), ("m", 4), ("m", 6), ("m", 7)]

    def test_subsystem_keeps_no_tangent_memo(self):
        tree = ast.parse((SRC / "subgroup.py").read_text(encoding="utf-8"))
        cls = next(
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SubSystem"
        )
        attrs = {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)}
        assert "_tangent" not in attrs


class TestSetting:
    def test_unpacks_as_its_four_parts(self):
        setting = build_setting(preset_skew("A2"))
        datum, sub, table, data = setting
        assert datum is setting.datum and sub is setting.sub
        assert table is setting.table and data is setting.data
        assert sub is table.sub and datum is data.datum and setting.group is sub.group
        assert len(tuple(setting)) == 4

    def test_lambda_table_is_built_on_first_use_only(self, monkeypatch):
        calls = []
        real = localize.lambda_table

        def counting(setting):
            calls.append(setting)
            return real(setting)

        monkeypatch.setattr(localize, "lambda_table", counting)
        setting = build_setting(preset_skew("A2"))
        assert calls == []
        first = setting.lambdas
        assert calls == [setting]
        assert setting.lambdas is first
        assert calls == [setting]
        assert len(first) == len(setting.group)

    def test_tangent_memo_lives_on_the_setting(self):
        setting = build_setting(preset_skew("A2"))
        other = build_setting(preset_skew("A2"))
        g = setting.group.simple[0]
        assert setting.tangents == {} and setting.fibers == {}
        tangent, fibers = tangent_n(setting, g), fiber_weights(setting, g)
        assert set(setting.tangents) == {g} and set(setting.fibers) == {g}
        assert other.tangents == {} and other.fibers == {}
        assert tangent_n(other, g) == tangent and fiber_weights(other, g) == fibers
        # a later call reads the memo, not the group
        setting.tangents[g] = 7
        setting.fibers[g] = (5,)
        assert tangent_n(setting, g) == 7 and fiber_weights(setting, g) == (5,)
        assert tangent_n(other, g) == tangent and fiber_weights(other, g) == fibers

    def test_weight_table_is_built_on_first_use_only(self):
        setting = build_setting(preset_skew("A2"))
        assert "weights" not in setting.__dict__
        table = setting.weights
        assert setting.weights is table
        assert table.entries[: len(setting.group.roots)] == setting.group.roots

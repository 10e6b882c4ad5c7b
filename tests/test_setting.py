"""The Setting object: what it holds, what it computes lazily, and the
calling convention it stands for across the source tree."""

import ast
import pathlib
from collections import Counter

from qhecke import localize
from qhecke.config import build_setting
from qhecke.localize import tangent_n
from qhecke.presets import preset_skew

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qhecke"

# Λ-weighted matrix products: they take the Λ table itself, not a setting
TAKE_LAMBDAS = {"fp_mul", "fp_apply"}


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


class TestCallingConvention:
    def test_lambdas_only_in_the_matrix_products(self):
        bad = [
            (mod, name)
            for mod, name, args in _functions()
            if "lambdas" in args and name not in TAKE_LAMBDAS
        ]
        assert bad == []

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
        assert setting.tangents == {}
        weights = tangent_n(setting, g)
        assert set(setting.tangents) == {g}
        assert other.tangents == {}
        assert tangent_n(other, g) == weights
        # a later call reads the memo, not the group
        setting.tangents[g] = ((7, 7),)
        assert tangent_n(setting, g) == Counter({(7, 7): 1})
        assert tangent_n(other, g) == weights

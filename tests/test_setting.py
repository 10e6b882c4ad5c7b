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

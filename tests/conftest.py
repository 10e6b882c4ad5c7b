"""Builders shared by the test modules."""

from qhecke.repdata import Setting
from qhecke.rootcore import build_root_datum
from qhecke.subgroup import CosetTable, fixed_subsystem


def make_setting(label, constraints=(), kind="nil") -> Setting:
    """The setting of a Cartan label cut down by torus constraints, with no
    twisting data ("nil") or one adjoint copy U = positives, V = roots
    ("skew")."""
    datum = build_root_datum(label)
    table = CosetTable(fixed_subsystem(datum, list(constraints)))
    if kind == "nil":
        return Setting(table)
    if kind == "skew":
        return Setting(table, [datum.positive_roots], [datum.roots])
    raise ValueError(kind)

"""Config schema: lossless JSON with exact rationals as "p/q" strings.

A config bundles the group spec, the torus constraints and the twisting
data, plus runtime options.  Parsing is strict (unknown fields rejected) and
emit/parse round-trips bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from ._kernel_py import DEGREE_LIMIT
from .errors import ParseError
from .polyops import coeff_str
from .repdata import Setting
from .rootcore import build_root_datum
from .subgroup import CosetTable, TorusConstraint, fixed_subsystem

_KNOWN_TOP = {"group", "torus", "springer", "options"}
_KNOWN_OPTIONS = {"strict_suitability", "degree_bound", "checks", "seed"}


@dataclass
class Config:
    group: object
    torus: list = field(default_factory=list)
    r: int = 0
    U: list = field(default_factory=list)
    V: list = field(default_factory=list)
    strict_suitability: bool = False
    degree_bound: int = 4
    checks: list | None = None
    seed: int = 0


def _rat(value) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"expected rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {value!r}") from exc
    raise ParseError(f"expected rational, got {value!r}")


def check_int(value, name: str, minimum: int | None = None) -> int:
    """An int (not a bool) no smaller than `minimum`, else ParseError."""
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParseError(f"{name} must be at least {minimum}, got {value}")
    return value


def check_degree_bound(value, name: str) -> int:
    """A degree bound of the check suites: an int from 0 up to the kernel's
    top degree (a monomial past it does not fit its packed fields), else
    ParseError."""
    value = check_int(value, name, 0)
    if value >= DEGREE_LIMIT:
        raise ParseError(f"{name} must be at most {DEGREE_LIMIT - 1}, got {value}")
    return value


def load_json(text: str, what: str):
    """Decode JSON input, else ParseError naming what it was."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(f"bad JSON in {what}: {exc}") from exc


def check_quiver(vertices, arrows, dimension) -> tuple:
    """The one validator of a quiver with dimension vector: unique vertex
    names (ints or strings, compared as JSON object keys), arrows as pairs of
    vertices, and `dimension` keyed by vertex, keyed by vertex name, or a
    list with one entry per vertex, each entry an integer >= 0.  Returns
    (vertices, arrows, dimension keyed by vertex) as tuples and a dict;
    raises ParseError on anything else."""
    if not isinstance(vertices, (list, tuple)) or not all(
        isinstance(v, (str, int)) for v in vertices
    ):
        raise ParseError(f"quiver vertices must be a list of names, got {vertices!r}")
    if not isinstance(arrows, (list, tuple)) or not all(
        isinstance(a, (list, tuple)) and len(a) == 2 for a in arrows
    ):
        raise ParseError(f"quiver arrows must be a list of pairs, got {arrows!r}")
    is_dict = isinstance(dimension, dict)
    values = dimension.values() if is_dict else dimension
    if not isinstance(dimension, (dict, list, tuple)) or not all(
        isinstance(v, (str, int)) for v in values
    ):
        raise ParseError(f"quiver dimension must be an object or a list, got {dimension!r}")
    if len({str(v) for v in vertices}) != len(vertices):
        raise ParseError(f"quiver vertex names must be unique, got {vertices!r}")
    vertices = tuple(vertices)
    if is_dict:
        # names compare as JSON keys; map them back onto the vertex objects
        by_name = {str(v): v for v in vertices}
        dims = {}
        for key, value in dimension.items():
            q = by_name.get(str(key))
            if q is None:
                raise ParseError(f"dimension at unknown vertex {key!r}")
            if q in dims:
                raise ParseError(f"dimension given twice at vertex {q!r}")
            dims[q] = check_int(value, f"quiver dimension at {key!r}", 0)
    elif len(dimension) != len(vertices):
        raise ParseError(f"quiver dimension list needs one entry per vertex, got {dimension!r}")
    else:
        dims = {
            q: check_int(v, f"quiver dimension at {q!r}", 0) for q, v in zip(vertices, dimension)
        }
    arrows = tuple(tuple(a) for a in arrows)
    for q, qp in arrows:
        if q not in vertices or qp not in vertices:
            raise ParseError(f"quiver arrow ({q!r}, {qp!r}) touches an unknown vertex")
    return vertices, arrows, dims


def parse_config(text: str) -> Config:
    raw = load_json(text, "config")
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(raw) - _KNOWN_TOP
    if unknown:
        raise ParseError(f"unknown config fields {sorted(unknown)}")
    if "group" not in raw:
        raise ParseError("config needs a group")
    cfg = Config(group=raw["group"])

    for entry in _typed(raw.get("torus", []), "torus", list):
        if not isinstance(entry, dict):
            raise ParseError(f"torus entry must be an object, got {entry!r}")
        unknown = set(entry) - {"kind", "values"}
        if unknown:
            raise ParseError(f"unknown torus fields {sorted(unknown)}")
        missing = {"kind", "values"} - set(entry)
        if missing:
            raise ParseError(f"torus entry needs fields {sorted(missing)}")
        if not isinstance(entry["values"], list):
            raise ParseError(f"torus values must be a list, got {entry['values']!r}")
        cfg.torus.append(
            {"kind": entry["kind"], "values": [_rat(v) for v in entry["values"]]}
        )

    springer = _typed(raw.get("springer", {}), "springer", dict)
    unknown = set(springer) - {"r", "U", "V"}
    if unknown:
        raise ParseError(f"unknown springer fields {sorted(unknown)}")
    cfg.r = check_int(springer.get("r", 0), "springer.r", 0)
    cfg.U = _typed(springer.get("U", []), "springer.U", list)
    cfg.V = _typed(springer.get("V", []), "springer.V", list)
    if len(cfg.U) != cfg.r or len(cfg.V) != cfg.r:
        raise ParseError("springer.U and springer.V must each have r entries")
    for entry in cfg.U:
        if not (entry == "positive_roots" or isinstance(entry, list)):
            raise ParseError(f"bad U entry {entry!r}")
    for entry in cfg.V:
        if not (entry == "all_roots" or isinstance(entry, list)):
            raise ParseError(f"bad V entry {entry!r}")

    options = _typed(raw.get("options", {}), "options", dict)
    unknown = set(options) - _KNOWN_OPTIONS
    if unknown:
        raise ParseError(f"unknown option fields {sorted(unknown)}")
    strict = options.get("strict_suitability", False)
    if not isinstance(strict, bool):
        raise ParseError(f"options.strict_suitability must be true or false, got {strict!r}")
    cfg.strict_suitability = strict
    cfg.degree_bound = check_degree_bound(options.get("degree_bound", 4), "options.degree_bound")
    cfg.checks = options.get("checks")
    if cfg.checks is not None and not (
        isinstance(cfg.checks, list) and all(isinstance(c, str) for c in cfg.checks)
    ):
        raise ParseError(f"options.checks must be a list of suite names, got {cfg.checks!r}")
    cfg.seed = check_int(options.get("seed", 0), "options.seed")
    return cfg


def emit_config(cfg: Config) -> str:
    raw = {
        "group": cfg.group,
        "torus": [
            {"kind": c["kind"], "values": [coeff_str(v) for v in c["values"]]}
            for c in cfg.torus
        ],
        "springer": {"r": cfg.r, "U": cfg.U, "V": cfg.V},
        "options": {
            "strict_suitability": cfg.strict_suitability,
            "degree_bound": cfg.degree_bound,
            "seed": cfg.seed,
        },
    }
    if cfg.checks is not None:
        raw["options"]["checks"] = cfg.checks
    return json.dumps(raw, indent=2, sort_keys=True)


def build_setting(cfg: Config) -> Setting:
    """Construct the setting of a parsed config; its Lambda table is left
    to be computed on first use."""
    datum = build_root_datum(cfg.group)
    constraints = [
        TorusConstraint(c["kind"], tuple(c["values"])) for c in cfg.torus
    ]
    sub = fixed_subsystem(datum, constraints)
    table = CosetTable(sub)
    U_sets = []
    for entry in cfg.U:
        if entry == "positive_roots":
            U_sets.append(datum.positive_roots)
        else:
            U_sets.append(_weights(entry, datum.ambient_rank, "U"))
    V_sets = []
    for entry in cfg.V:
        if entry == "all_roots":
            V_sets.append(datum.roots)
        else:
            V_sets.append(_weights(entry, datum.ambient_rank, "V"))
    return Setting(table, U_sets, V_sets)


def _weights(entry, rank: int, name: str) -> list:
    """Explicit springer weights as integer tuples of the ambient rank."""
    out = []
    for v in entry:
        if not isinstance(v, (list, tuple)) or len(v) != rank:
            raise ParseError(
                f"springer.{name} weight {v!r} must be a list of {rank} integers"
            )
        out.append(tuple(check_int(x, f"springer.{name} weight entry") for x in v))
    return out


def _typed(value, name: str, kind: type):
    """`value` when it is a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ParseError(f"{name} must be {what}, got {value!r}")
    return value

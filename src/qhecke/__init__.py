"""Exact symbolic construction and verification of twisted convolution
algebras attached to reductive-group data, with a fixed-point localization
cross-check pathway and turnkey nil Hecke / skew group / quiver Hecke presets.
"""

__version__ = "0.1.0"

from .rootcore import build_root_datum  # noqa: F401
from .subgroup import CosetTable, TorusConstraint, fixed_subsystem  # noqa: F401
from .repdata import SpringerData  # noqa: F401
from .polyops import Poly, RatFun  # noqa: F401

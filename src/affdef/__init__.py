"""Exact deformation calculus for vacuum modules of affine Lie algebras."""

from .liealg import sl2, sln
from .pbw import Mode, apply_mode, normal_order
from .rigidity import integral_pipeline

__all__ = ["sl2", "sln", "Mode", "apply_mode", "normal_order", "integral_pipeline"]

__version__ = "0.1.0"

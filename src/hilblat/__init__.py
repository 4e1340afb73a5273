"""Exact-arithmetic computations with the integral lattices attached to K3
surfaces and their Douady spaces of points."""

from . import core, douady, groups, workspace
from .core import *  # noqa: F403
from .douady import *  # noqa: F403
from .groups import *  # noqa: F403
from .workspace import *  # noqa: F403

__all__ = core.__all__ + douady.__all__ + groups.__all__ + workspace.__all__

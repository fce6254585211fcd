"""Descent statistics on colored permutation groups and their
cyclic-shift quotients, with exact polynomial shape analysis.

Each module declares its public objects in its own ``__all__``; the
package re-exports them all."""

from .core import *
from .enumeration import *
from .poly import *
from .stats import *

__all__ = sorted([*core.__all__, *enumeration.__all__, *poly.__all__, *stats.__all__])

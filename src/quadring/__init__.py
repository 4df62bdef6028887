"""quadring: exact point counts for quadric fibrations over prime fields,
formal Grothendieck-ring bookkeeping for the matching class identities, and
the Pell-type discriminant arithmetic separating isomorphic pairs from
merely L-equivalent ones.

Submodules load on first import (``from quadring import netfib``), so a
command pays only for the modules it runs: ``groth`` and ``disc`` never load
numpy.
"""

from .errors import BudgetExceededError, DegenerateSectionError, InputError

__version__ = "0.1.0"

__all__ = [
    "gfp",
    "grothring",
    "mpoly",
    "netfib",
    "nslattice",
    "quadform",
    "BudgetExceededError",
    "DegenerateSectionError",
    "InputError",
    "__version__",
]

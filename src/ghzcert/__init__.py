"""Exact construction and certification of GHZ contradictions for qudits.

The library builds generalized GHZ states and covariantly rotated product
observables for N qudits of any dimension d, synthesizes the three
families of concurrent operators that exhibit quantum-versus-hidden-
variable contradictions, and certifies each contradiction by proving the
induced linear congruence system over Z_d unsolvable.  All core logic is
exact (rational turn fractions and integer linear algebra); floats appear
only in the numeric cross-check oracles.
"""

from . import constructions, hidden_variables, operators, phases, states
from .constructions import *  # noqa: F401,F403
from .hidden_variables import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .phases import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (constructions, hidden_variables, operators, phases, states)
    for name in module.__all__
)

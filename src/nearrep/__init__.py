"""Near-exact representations for parametric preference models.

Measures how far a model's observed choices sit from the exact axioms
(mixture linearity, independence, additivity across states, homogeneity,
stationarity) and builds the benchmark representation each theorem
promises, verifying the advertised closeness bound on a sampled grid.
"""

from . import core, risk, timepref, uncertainty
from .core import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403
from .timepref import *  # noqa: F401,F403
from .uncertainty import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *risk.__all__, *timepref.__all__, *uncertainty.__all__]

"""blochpulse: drive synthesis for prescribed two-level Bloch trajectories.

Prescribe how the Bloch components of a qubit should move, closed or open;
this package reverse-engineers the physical drive (envelope, detuning,
carrier phase) that realizes the motion, simulates it in the lab frame, the
co-rotating frame, the master equation, and the damped component equations,
and verifies tracking, frame agreement, and rotating-wave breakdown.

Each API module's ``__all__`` is its public API, and the package re-exports
every one of them. Internal units: time in ps, angular frequency in rad/ps,
rates in 1/ps.
"""

from .errors import *
from .states import *
from .rates import *
from .trajectories import *
from .synthesis import *
from .odeint import *
from .dynamics import *
from .verify import *
from .scenario import *

__version__ = "0.1.0"

# each star import above also binds its module's name here
__all__ = [*errors.__all__, *states.__all__, *rates.__all__, *trajectories.__all__,
           *synthesis.__all__, *odeint.__all__, *dynamics.__all__, *verify.__all__,
           *scenario.__all__, "__version__"]

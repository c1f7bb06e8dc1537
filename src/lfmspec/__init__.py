"""Spectra of composition operators induced by linear fractional self-maps
of the complex unit ball, with classification, normal forms, and a
truncated-power-series numerical oracle."""

from .errors import *  # noqa: F401,F403
from .maps import *  # noqa: F401,F403
from .classify import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403

__version__ = "0.1.0"

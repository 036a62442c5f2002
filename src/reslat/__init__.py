"""Exact-arithmetic workbench for residuated lattices and ordered groups.

Every name in the `__all__` of the seven library modules below is also on
the package; a module's `__all__` is the one place a public name is stated.
`reslat.cli` is left out, so that `import reslat` does not load argparse.
"""

from . import terms, finite, models, nilpotent, omon, ore, battery
from .terms import *
from .finite import *
from .models import *
from .nilpotent import *
from .omon import *
from .ore import *
from .battery import *

__all__ = [*terms.__all__, *finite.__all__, *models.__all__, *nilpotent.__all__,
           *omon.__all__, *ore.__all__, *battery.__all__]

__version__ = "0.1.0"

"""Mutually unbiased bases, commuting operator classes, and tomography.

The package publishes exactly the names in each submodule's ``__all__``.
"""

from . import matcore, mub, classes, tensors, tomography
from .matcore import *
from .mub import *
from .classes import *
from .tensors import *
from .tomography import *

__version__ = "0.1.0"

__all__ = [*matcore.__all__, *mub.__all__, *classes.__all__, *tensors.__all__,
           *tomography.__all__, "__version__"]

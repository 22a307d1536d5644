"""lambertq: exact truncated power series over the integers, the named
q-series built from Lambert sums and Pochhammer products, an independent
brute-force oracle, and a coefficient-exact identity verification suite.

Each module's `__all__` is the public surface; the package republishes them."""

from . import constructors, errors, harness, oracle, series
from .constructors import *
from .errors import *
from .harness import *
from .oracle import *
from .series import *

__version__ = "1.0.0"

__all__ = ["__version__"]
__all__ += series.__all__
__all__ += constructors.__all__
__all__ += oracle.__all__
__all__ += harness.__all__
__all__ += errors.__all__

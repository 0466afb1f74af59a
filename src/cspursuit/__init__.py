"""Chunk-sparse signal recovery with prior support information.

Signals are matrices whose rows fall into K chunks of height d; only a few
chunks are nonzero, and an earlier estimate of which ones (with a floor on
how many of them are still right) can be fed to the recovery algorithms.
Includes exact isometry-constant computation with the matching recovery
guarantees, a multi-antenna channel estimation front end, and a seeded
Monte-Carlo experiment harness.

Each module's __all__ is the one list of what it exports; the package
exports their union.
"""
from .errors import *
from .core import *
from .sparsity import *
from .pursuit import *
from .analysis import *
from .mimo import *
from .oracle import *
from .experiments import *

__version__ = "0.1.0"

# importing a submodule binds it here, so each module name is defined
__all__ = ["__version__"] + [
    name for module in (errors, core, sparsity, pursuit, analysis, mimo,
                        oracle, experiments)
    for name in module.__all__]

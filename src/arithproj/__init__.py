"""Exact arithmetic of slice-bounded pair relations.

Counting lower bounds for label-linked chains, inequality chains relating
a relation's size to its sum, difference, and skew-sum projections,
digit-pattern constructions showing the bounds are close to sharp, an
exhaustive search over small patterns, and the resulting dimension
estimates for Besicovitch sets.  All arithmetic is integer or rational.

The package namespace is the union of the modules' ``__all__`` lists.  The
name ``search`` is the search function, which shadows the submodule of the
same name; ``from arithproj.search import ...`` still reads the module.
"""

from __future__ import annotations

from . import chains, errors, groups, instances, kakeya, patterns, proofs, sampling
from . import search as _search_module
from .chains import *  # noqa: F403
from .errors import *  # noqa: F403
from .groups import *  # noqa: F403
from .instances import *  # noqa: F403
from .kakeya import *  # noqa: F403
from .patterns import *  # noqa: F403
from .proofs import *  # noqa: F403
from .sampling import *  # noqa: F403
from .search import *  # noqa: F403  (rebinds ``search`` to the function)

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        chains, errors, groups, instances, kakeya, patterns, proofs, sampling,
        _search_module,
    )
    for name in module.__all__
]

"""Ultrametricity and clusterability analysis via min-max matrix powers.

Core pipeline: a dissimilarity matrix is raised to successive min-max
powers until it stabilizes; the fixpoint is the subdominant ultrametric,
the stabilization power m yields the clusterability score n/m, and the
stabilized matrix supports spheric clusterings and histogram-based
cluster-count estimates.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from . import clustering, data, dendrogram, errors, semiring, ultrametric
from .clustering import *  # noqa: F403
from .data import *  # noqa: F403
from .dendrogram import *  # noqa: F403
from .errors import *  # noqa: F403
from .semiring import *  # noqa: F403
from .ultrametric import *  # noqa: F403

__version__ = "0.1.0"

__all__ = []
__all__ += clustering.__all__
__all__ += data.__all__
__all__ += dendrogram.__all__
__all__ += errors.__all__
__all__ += semiring.__all__
__all__ += ultrametric.__all__

"""Meta-path count features over the heterogeneous network.

The cited feature set (Zhang et al., ICDM 2013; Sun et al., ASONAM 2011)
counts path instances between two users along typed meta paths.  With the
paper's schema (users U, posts P, words W, timestamps T, locations L) the
informative symmetric paths of length four are::

    U → P → W → P → U   (shared vocabulary through posts)
    U → P → T → P → U   (posting at the same hours)
    U → P → L → P → U   (checking in at the same venues)

Because every post has exactly one author, the path count for
``U-P-x-P-U`` equals ``M_x M_xᵀ`` where ``M_x`` is the user-by-``x``
incidence count matrix — so counts reduce to the profile matrices computed by
the spatial / temporal / textual modules, unnormalized.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.exceptions import FeatureError
from repro.features.spatial import user_location_counts
from repro.features.temporal import user_hour_histograms
from repro.features.textual import user_word_counts
from repro.networks.heterogeneous import HeterogeneousNetwork
from repro.utils.matrices import zero_diagonal

_PROFILE_BUILDERS: Dict[str, Callable[[HeterogeneousNetwork], np.ndarray]] = {
    "UPWPU": user_word_counts,
    "UPTPU": user_hour_histograms,
    "UPLPU": user_location_counts,
}

METAPATHS = tuple(_PROFILE_BUILDERS)
"""Names of the supported symmetric meta paths."""


def metapath_count_matrix(
    network: HeterogeneousNetwork, metapath: str
) -> np.ndarray:
    """Path-instance counts between all user pairs for one meta path.

    Parameters
    ----------
    network:
        The heterogeneous network.
    metapath:
        One of :data:`METAPATHS` (``"UPWPU"``, ``"UPTPU"``, ``"UPLPU"``).

    Returns
    -------
    ``n×n`` symmetric count matrix with zero diagonal.
    """
    return metapath_counts_from_profiles(profile_matrix(network, metapath))


def profile_matrix(network: HeterogeneousNetwork, metapath: str) -> np.ndarray:
    """The user-by-``x`` incidence counts ``M_x`` behind one meta path."""
    try:
        builder = _PROFILE_BUILDERS[metapath]
    except KeyError:
        raise FeatureError(
            f"unknown metapath {metapath!r}; supported: {sorted(METAPATHS)}"
        ) from None
    return builder(network)


def metapath_counts_from_profiles(profiles: np.ndarray) -> np.ndarray:
    """:func:`metapath_count_matrix` given the :func:`profile_matrix`."""
    if profiles.shape[1] == 0:
        return np.zeros((profiles.shape[0], profiles.shape[0]))
    return zero_diagonal(profiles @ profiles.T)

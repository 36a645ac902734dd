"""Bridges between :mod:`repro.networks` and NetworkX.

NetworkX is the lingua franca of Python graph tooling; these converters let
downstream users visualize generated worlds, run their own graph algorithms
on the social structure, or import an existing NetworkX graph as the social
layer of a :class:`~repro.networks.heterogeneous.HeterogeneousNetwork`.
"""

from __future__ import annotations



import networkx as nx

from repro.exceptions import NetworkError
from repro.networks.entities import NodeType
from repro.networks.heterogeneous import HeterogeneousNetwork
from repro.networks.social import SocialGraph


def social_graph_to_networkx(graph: SocialGraph) -> nx.Graph:
    """Convert a social structure snapshot to an undirected NetworkX graph.

    Nodes carry the original user ids; the graph has no attribute payload.
    """
    out = nx.Graph()
    out.add_nodes_from(graph.user_ids)
    user_ids = graph.user_ids
    for i, j in sorted(graph.links()):  # pairs-ok: an export, O(links)
        out.add_edge(user_ids[i], user_ids[j])
    return out


def network_to_networkx(
    network: HeterogeneousNetwork, include_attributes: bool = True
) -> nx.Graph:
    """Convert a full heterogeneous network to a typed NetworkX graph.

    Nodes are namespaced (``("user", id)``, ``("post", id)`` …) and carry a
    ``node_type`` attribute; edges carry an ``edge_type`` attribute
    (``social`` / ``write`` / ``word`` / ``time`` / ``locate``), matching
    the paper's edge families.  With ``include_attributes=False`` only the
    user nodes and social links are emitted.
    """
    out = nx.Graph()
    for user_id in network.user_ids:
        out.add_node(("user", user_id), node_type=NodeType.USER.value)
    for a, b in sorted(network.social_links):
        out.add_edge(("user", a), ("user", b), edge_type="social")
    if not include_attributes:
        return out
    for location in network.locations():
        out.add_node(
            ("location", location.location_id),
            node_type=NodeType.LOCATION.value,
            latitude=location.latitude,
            longitude=location.longitude,
        )
    hours_seen = set()
    words_seen = set()
    for post in network.posts():
        post_node = ("post", post.post_id)
        out.add_node(post_node, node_type=NodeType.POST.value)
        out.add_edge(("user", post.author_id), post_node, edge_type="write")
        hour_node = ("timestamp", post.hour)
        if post.hour not in hours_seen:
            out.add_node(hour_node, node_type=NodeType.TIMESTAMP.value)
            hours_seen.add(post.hour)
        out.add_edge(post_node, hour_node, edge_type="time")
        for word_id in set(post.word_ids):
            word_node = ("word", word_id)
            if word_id not in words_seen:
                out.add_node(word_node, node_type=NodeType.WORD.value)
                words_seen.add(word_id)
            out.add_edge(post_node, word_node, edge_type="word")
        if post.has_checkin:
            out.add_edge(
                post_node, ("location", post.location_id), edge_type="locate"
            )
    return out


def network_from_networkx(
    graph: nx.Graph, name: str = "imported"
) -> HeterogeneousNetwork:
    """Import a plain NetworkX graph as the social layer of a network.

    Every node becomes a user (ids must be integers or integer-convertible);
    every edge becomes a social link.  Attribute layers start empty — add
    posts with :meth:`HeterogeneousNetwork.add_post`.
    """
    network = HeterogeneousNetwork(name)
    try:
        node_ids = sorted(int(node) for node in graph.nodes)
    except (TypeError, ValueError) as exc:
        raise NetworkError(
            "node identifiers must be integer-convertible to import as users"
        ) from exc
    for node_id in node_ids:
        network.add_user(node_id)
    for a, b in graph.edges:
        a, b = int(a), int(b)
        if a != b and not network.has_social_link(a, b):
            network.add_social_link(a, b)
    return network

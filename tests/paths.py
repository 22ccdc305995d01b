"""Reference simple-path enumeration. The library lists no path; tests
compare its path-free results against the paths this module lists."""

from riskroute.network import Network, PathCountError

#: Default ceiling for exhaustive simple-path enumeration.
DEFAULT_PATH_CAP = 10_000


def enumerate_simple_paths(
    network: Network, cap: int = DEFAULT_PATH_CAP
) -> tuple[tuple[str, ...], ...]:
    """All simple source->sink paths, as tuples of edge ids, in lexicographic
    edge-id order.

    Raises PathCountError beyond ``cap``: the instance is too large for the
    exhaustive checks that need the full path set.
    """
    paths: list[tuple[str, ...]] = []
    path_edges: list[str] = []
    on_path = {network.source}
    # stack holds (node, index into that node's sorted out-edges)
    stack: list[tuple[str, int]] = [(network.source, 0)]
    while stack:
        node, idx = stack[-1]
        out = network.out_edges.get(node, ())
        if idx >= len(out):
            stack.pop()
            if path_edges:
                path_edges.pop()
            on_path.discard(node)
            continue
        stack[-1] = (node, idx + 1)
        edge = out[idx]
        if edge.head in on_path:
            continue
        if edge.head == network.sink:
            paths.append(tuple(path_edges) + (edge.id,))
            if len(paths) > cap:
                raise PathCountError(
                    f"more than {cap} simple paths from "
                    f"{network.source!r} to {network.sink!r}"
                )
            continue
        path_edges.append(edge.id)
        on_path.add(edge.head)
        stack.append((edge.head, 0))
    return tuple(paths)

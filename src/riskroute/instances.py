"""Instance families and JSON serialization.

Closed-form families (pigou, braess, braess_general, zigzag) reproduce known
worst cases with exact parameter-to-cost formulas; the random families emit
seeded, structure-controlled instances for fuzzing. Each random family draws
its own topology, then hands it to one assembly that draws the demand, gamma,
kappa target and edge costs from the same generator. Generation is fully
deterministic: the same seed yields a byte-identical file.
"""

from __future__ import annotations

import json
import math
import random
from bisect import insort
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping

from .network import (
    RISK_MEAN_VAR,
    RISK_MODELS,
    Edge,
    Instance,
    Network,
    poly_value,
)

class InstanceFormatError(ValueError):
    """Malformed instance document; the message names the offending field."""


# --- construction helpers ---------------------------------------------------


def _edge(eid: str, tail: str, head: str, latency, risk=(0.0,)) -> Edge:
    return Edge(eid, tail, head, tuple(map(float, latency)), tuple(map(float, risk)))


def _pigou(gamma: float, kappa: float, risk_model: str) -> Instance:
    if gamma < 0 or kappa < 0:
        raise ValueError("pigou needs gamma >= 0 and kappa >= 0")
    # e1: latency (1+gamma*kappa)*x, no risk. e2: latency 1, constant risk kappa.
    net = Network(
        nodes=("s", "t"),
        edges=(
            _edge("e1", "s", "t", (0.0, 1.0 + gamma * kappa)),
            _edge("e2", "s", "t", (1.0,), (kappa,)),
        ),
        source="s",
        sink="t",
    )
    return Instance(
        network=net,
        demand=1.0,
        gamma=gamma,
        risk_model=risk_model,
        name=f"pigou-g{gamma:g}-k{kappa:g}",
    )


def _braess_like(alpha: float, v: float, risk_model: str, name: str) -> Instance:
    beta = 1.0 - alpha
    net = Network(
        nodes=("s", "t", "u", "w"),
        edges=(
            _edge("a", "s", "u", (0.0, alpha)),
            _edge("b", "u", "t", (1.0,), (v,)),
            _edge("c", "s", "w", (1.0,), (v,)),
            _edge("d", "w", "t", (0.0, alpha)),
            _edge("e", "u", "w", (beta + v,)),
        ),
        source="s",
        sink="t",
    )
    return Instance(network=net, demand=1.0, gamma=1.0, risk_model=risk_model, name=name)


def _braess(v: float, risk_model: str) -> Instance:
    if not 0.0 < v <= 1.0:
        raise ValueError("braess needs 0 < v <= 1")
    return _braess_like(2.0 * v, v, risk_model, name=f"braess-v{v:g}")


def _braess_general(alpha: float, v: float, risk_model: str) -> Instance:
    if v <= 0:
        raise ValueError("braess_general needs v > 0")
    if alpha < 2.0 * v:
        raise ValueError("braess_general needs alpha >= 2v for an interior equilibrium")
    if alpha > 1.0:
        raise ValueError("braess_general needs alpha <= 1 so the crossing edge stays nonnegative")
    return _braess_like(alpha, v, risk_model, name=f"braess-a{alpha:g}-v{v:g}")


def _zigzag(k: int, risk_model: str) -> Instance:
    """Ladder of k unit-slope rungs joined by free connectors.

    Direct route i is s->u_i->w_i->t with latency x on the rung; connectors
    w_i->u_{i+1} allow one path that zigzags through every rung. All risk is
    zero. The equilibrium spreads demand over the k direct routes (shortest
    path value 1/k) while routing everything down the zigzag yields 1.
    """
    if k < 2:
        raise ValueError("zigzag needs k >= 2")
    nodes = ["s", "t"]
    edges: list[Edge] = []
    for i in range(1, k + 1):
        u, w = f"u{i:02d}", f"w{i:02d}"
        nodes += [u, w]
        edges.append(_edge(f"s{i:02d}", "s", u, (0.0,)))
        edges.append(_edge(f"m{i:02d}", u, w, (0.0, 1.0)))
        edges.append(_edge(f"t{i:02d}", w, "t", (0.0,)))
    for i in range(1, k):
        edges.append(_edge(f"c{i:02d}", f"w{i:02d}", f"u{i + 1:02d}", (0.0,)))
    net = Network(nodes=tuple(nodes), edges=tuple(edges), source="s", sink="t")
    return Instance(
        network=net, demand=1.0, gamma=1.0, risk_model=risk_model, name=f"zigzag-k{k}"
    )


# --- random families --------------------------------------------------------


def _random_latency(rng: random.Random) -> tuple[float, ...]:
    # Strictly positive constant and linear terms: equilibrium edge flows are
    # then unique, which keeps cross-solver flow comparisons well-posed.
    coeffs = [
        round(rng.uniform(0.1, 1.0), 6),
        round(rng.uniform(0.01, 1.0), 6),
    ]
    if rng.random() < 0.5:
        coeffs.append(round(rng.uniform(0.0, 0.5), 6))
    if rng.random() < 0.25:
        coeffs.append(round(rng.uniform(0.0, 0.25), 6))
    return tuple(coeffs)


def _random_risk(
    rng: random.Random, latency: tuple[float, ...], demand: float, target: float
) -> tuple[float, ...]:
    """Risk polynomial with risk(f)/latency(f) <= target on [0, demand].

    Bounding risk by target * latency(0) pointwise suffices: the latency is
    nondecreasing, so the ratio never exceeds target at any feasible flow.
    """
    if rng.random() < 0.25:
        return (0.0,)
    raw = [rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 3))]
    peak = poly_value(raw, demand)
    if peak <= 0.0:
        return (0.0,)
    scale = target * rng.uniform(0.3, 1.0) * latency[0] / peak
    return tuple(round(c * scale, 9) for c in raw)


def _random_instance(
    rng: random.Random,
    nodes: list[str],
    source: str,
    sink: str,
    arcs: list[tuple[str, str, str]],
    gamma: float | None,
    kappa_target: float | None,
    risk_model: str,
    name: str,
) -> Instance:
    """The random families' one assembly: on the drawn topology, ``arcs``
    as (id, tail, head) in declaration order, draw the demand, then gamma
    and the kappa target unless given, then each arc's latency and risk in
    arc order, and build the instance."""
    demand = round(rng.uniform(0.5, 2.0), 6)
    g = gamma if gamma is not None else round(rng.uniform(0.25, 2.0), 6)
    target = kappa_target if kappa_target is not None else round(rng.uniform(0.1, 0.8), 6)
    built: list[Edge] = []
    for eid, tail, head in arcs:
        lat = _random_latency(rng)
        built.append(_edge(eid, tail, head, lat, _random_risk(rng, lat, demand, target)))
    net = Network(nodes=tuple(nodes), edges=tuple(built), source=source, sink=sink)
    return Instance(network=net, demand=demand, gamma=g, risk_model=risk_model, name=name)


def _random_sp(
    budget: int,
    seed: int,
    gamma: float | None,
    kappa_target: float | None,
    max_paths: int | None,
    risk_model: str,
) -> Instance:
    if budget < 0:
        raise ValueError("random_sp needs budget >= 0")
    rng = random.Random(seed)
    # Grow a series-parallel multigraph from a single source->sink edge by
    # subdividing an edge (series) or duplicating an edge (parallel).
    edges: dict[str, tuple[str, str]] = {"e00": ("s", "t")}
    keys = ["e00"]  # sorted(edges), kept by insort
    node_counter = 0
    edge_counter = 1
    # Under max_paths, the s->v (into) and v->t (onward) path counts of every
    # node and the source-sink count. Duplicating a tail->head edge adds
    # into[tail] * onward[head] paths; subdividing one adds a node with its
    # edge's counts and changes no other count. A successor map keeps the
    # nodes in a topological order from s to t, a subdividing node linked in
    # O(1) right after its edge's tail; a forward and a backward pass over
    # its walk recount paths.
    into, onward, paths = {"s": 1, "t": 1}, {"s": 1, "t": 1}, 1
    after = {"s": "t"}

    def recount() -> int:
        order = ["s"]
        while order[-1] != "t":
            order.append(after[order[-1]])
        heads: dict[str, list[str]] = {v: [] for v in order}
        for tail, head in edges.values():
            heads[tail].append(head)
        into.update(dict.fromkeys(order[1:], 0))
        for v in order:
            for h in heads[v]:
                into[h] += into[v]
        for v in reversed(order[:-1]):
            onward[v] = sum(map(onward.__getitem__, heads[v]))
        return onward["s"]

    for _ in range(budget):
        op = rng.choice(("series", "parallel"))
        key = rng.choice(keys)
        tail, head = edges[key]
        new_key = f"e{edge_counter:02d}"
        if op == "series":
            mid = f"n{node_counter:02d}"
            node_counter += 1
            edges[key] = (tail, mid)
            edges[new_key] = (mid, head)
            into[mid], onward[mid] = into[tail], onward[head]
            after[tail], after[mid] = mid, after[tail]
        else:
            if max_paths is not None and paths + into[tail] * onward[head] > max_paths:
                continue
            edges[new_key] = (tail, head)
            if max_paths is not None:
                paths = recount()
        edge_counter += 1
        insort(keys, new_key)

    arcs = [(key, *edges[key]) for key in keys]
    nodes = sorted({"s", "t"}.union(*edges.values()))
    name = f"random-sp-b{budget}-s{seed}"
    return _random_instance(rng, nodes, "s", "t", arcs, gamma, kappa_target, risk_model, name)


def _random_general(
    n: int,
    m: int,
    seed: int,
    gamma: float | None,
    kappa_target: float | None,
    risk_model: str,
) -> Instance:
    if n < 2:
        raise ValueError("random_general needs n >= 2")
    if m < 1:
        raise ValueError("random_general needs m >= 1")
    rng = random.Random(seed)
    names = [f"v{i:02d}" for i in range(n)]
    # Backbone path through a random subset of interior nodes keeps the sink
    # reachable; extra arcs respect the node order, so the graph is acyclic.
    interior = list(range(1, n - 1))
    backbone = [0] + [i for i in interior if rng.random() < 0.6] + [n - 1]
    arcs: list[tuple[int, int]] = list(zip(backbone, backbone[1:]))
    while len(arcs) < m:
        i = rng.randrange(0, n - 1)
        j = rng.randrange(i + 1, n)
        arcs.append((i, j))

    named = [(f"e{idx:02d}", names[i], names[j]) for idx, (i, j) in enumerate(arcs)]
    name = f"random-n{n}-m{m}-s{seed}"
    return _random_instance(
        rng, names, names[0], names[-1], named, gamma, kappa_target, risk_model, name
    )


# optional parameters of both random families; unset ones are drawn from the seed
_DRAWN = (("gamma", float, False), ("kappa_target", float, False))

#: family -> (builder, its parameters as (name, int or float, required), takes a seed)
_FAMILY_TABLE: dict[
    str, tuple[Callable[..., Instance], tuple[tuple[str, type, bool], ...], bool]
] = {
    "pigou": (_pigou, (("gamma", float, True), ("kappa", float, True)), False),
    "braess": (_braess, (("v", float, True),), False),
    "braess_general": (_braess_general, (("alpha", float, True), ("v", float, True)), False),
    "zigzag": (_zigzag, (("k", int, True),), False),
    "random_sp": (_random_sp, (("budget", int, True), *_DRAWN, ("max_paths", int, False)), True),
    "random_general": (_random_general, (("n", int, True), ("m", int, True), *_DRAWN), True),
}
FAMILIES = tuple(_FAMILY_TABLE)


def _parameter(family: str, key: str, value: Any, kind: type) -> int | float:
    """``value`` as a finite float, or as an int when ``kind`` is int."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if number is None or not math.isfinite(number):
        raise ValueError(f"{family} parameter {key!r} must be a finite number, got {value!r}")
    if kind is float:
        return number
    if not number.is_integer():
        raise ValueError(f"{family} parameter {key!r} must be a whole number, got {value!r}")
    return int(value)


def make(family: str, seed: int | None = None, **params: Any) -> Instance:
    """Build an instance from family parameters. Raises ValueError on unknown
    families, missing/extra parameters, values that are not finite numbers
    (or not whole for an integer parameter), and out-of-range values."""
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}")
    builder, spec, seeded = _FAMILY_TABLE[family]
    p = dict(params)
    risk_model = p.pop("risk_model", RISK_MEAN_VAR)
    if risk_model not in RISK_MODELS:
        raise ValueError(f"unknown risk model {risk_model!r}")
    args: dict[str, Any] = {"risk_model": risk_model}
    if seeded:
        if seed is None:
            raise ValueError(f"{family} needs a seed")
        args["seed"] = seed
    for key, kind, required in spec:
        value = p.pop(key, None)
        if value is None and required:
            raise ValueError(f"{family} is missing parameter {key!r}")
        args[key] = None if value is None else _parameter(family, key, value, kind)
    if p:
        extra = ", ".join(sorted(map(repr, p)))
        raise ValueError(f"{family} got unexpected parameters: {extra}")
    return builder(**args)


# --- serialization ----------------------------------------------------------

# dicts so that one comparison of key views checks a whole document
_TOP_FIELDS = dict.fromkeys(
    ("name", "nodes", "edges", "source", "sink", "demand", "gamma", "risk_model")
)
_EDGE_FIELDS = dict.fromkeys(("id", "tail", "head", "latency", "risk"))

# Error messages name a field of edge number ``edge``, or a top-level field
# when ``edge`` is None. The names are formatted only for a message.


def _require(doc: Mapping[str, Any], fields: dict, edge: int | None = None) -> None:
    if doc.keys() == fields.keys():
        return
    where = "instance" if edge is None else f"edge #{edge}"
    for key in doc:
        if key not in fields:
            raise InstanceFormatError(f"unknown field {key!r} in {where}")
    for key in fields:
        if key not in doc:
            raise InstanceFormatError(f"missing field {key!r} in {where}")


def _field(key: str, edge: int | None) -> str:
    return repr(key) if edge is None else f"edge #{edge} {key}"


def _number(value: Any, key: str, edge: int | None = None) -> float:
    """A JSON number as a float; a JSON integer may be too large for one."""
    if type(value) is float:
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InstanceFormatError(f"field {_field(key, edge)} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise InstanceFormatError(
            f"field {_field(key, edge)} is too large for a float"
        ) from None


def _number_list(value: Any, key: str, edge: int) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise InstanceFormatError(f"field {_field(key, edge)} must be a list of numbers")
    if not value:
        raise InstanceFormatError(f"field {_field(key, edge)} must not be empty")
    return tuple([_number(c, key, edge) for c in value])


def read_instance(data: bytes | str) -> Instance:
    """Parse an instance document. Structural problems raise
    InstanceFormatError naming the field; invariant violations (negative
    coefficients, cycles, bad demand) are left to validate_instance."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level document must be an object")
    _require(doc, _TOP_FIELDS)

    if not isinstance(doc["name"], str):
        raise InstanceFormatError("field 'name' must be a string")
    if not isinstance(doc["nodes"], list) or not all(
        isinstance(v, str) for v in doc["nodes"]
    ):
        raise InstanceFormatError("field 'nodes' must be a list of strings")
    if not isinstance(doc["edges"], list):
        raise InstanceFormatError("field 'edges' must be a list")
    # an endpoint that names a declared node holds that node's string, so a
    # loaded network keeps one string object per name
    names = {v: v for v in doc["nodes"]}
    edges = []
    for i, edoc in enumerate(doc["edges"]):
        if not isinstance(edoc, dict):
            raise InstanceFormatError(f"edge #{i} must be an object")
        _require(edoc, _EDGE_FIELDS, i)
        for key in ("id", "tail", "head"):
            if not isinstance(edoc[key], str):
                raise InstanceFormatError(f"edge #{i}: field {key!r} must be a string")
        edges.append(
            Edge(
                id=edoc["id"],
                tail=names.get(edoc["tail"], edoc["tail"]),
                head=names.get(edoc["head"], edoc["head"]),
                latency=_number_list(edoc["latency"], "latency", i),
                risk=_number_list(edoc["risk"], "risk", i),
            )
        )
    for key in ("source", "sink"):
        if not isinstance(doc[key], str):
            raise InstanceFormatError(f"field {key!r} must be a string")
    demand, gamma = (_number(doc[key], key) for key in ("demand", "gamma"))
    if not isinstance(doc["risk_model"], str):
        raise InstanceFormatError("field 'risk_model' must be a string")

    net = Network(
        nodes=tuple(doc["nodes"]),
        edges=tuple(edges),
        source=names.get(doc["source"], doc["source"]),
        sink=names.get(doc["sink"], doc["sink"]),
    )
    return Instance(
        network=net,
        demand=demand,
        gamma=gamma,
        risk_model=doc["risk_model"],
        name=doc["name"],
    )


def _scalar(value: Any) -> str:
    """One JSON scalar as ``json.dumps`` prints it: strings ASCII-escaped,
    finite floats (float subclasses too) by ``float.__repr__``, and the rest
    (ints, bools, NaN, infinities) by ``json.dumps``, which also raises
    TypeError on a value JSON cannot hold."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _layout(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Rendered items laid out as ``json.dumps(indent=2)`` lays them out: one
    a line, two spaces deeper than ``indent``, where the closing bracket
    sits. No items print as the bare brackets."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{indent}{brackets[1]}"


def write_instance(instance: Instance) -> bytes:
    """Canonical serialization: the bytes of ``json.dumps(doc, indent=2)``
    plus a newline, for fixed field order, sorted nodes and edges in
    declaration order. Reading the result back reproduces the instance
    exactly."""
    net = instance.network
    edges = [
        _layout(
            [
                f'"id": {_scalar(e.id)}',
                f'"tail": {_scalar(e.tail)}',
                f'"head": {_scalar(e.head)}',
                f'"latency": {_layout(list(map(_scalar, e.latency)), "      ")}',
                f'"risk": {_layout(list(map(_scalar, e.risk)), "      ")}',
            ],
            "    ",
            "{}",
        )
        for e in net.edges
    ]
    doc = _layout(
        [
            f'"name": {_scalar(instance.name)}',
            f'"nodes": {_layout(list(map(_scalar, sorted(net.nodes))), "  ")}',
            f'"edges": {_layout(edges, "  ")}',
            f'"source": {_scalar(net.source)}',
            f'"sink": {_scalar(net.sink)}',
            f'"demand": {_scalar(instance.demand)}',
            f'"gamma": {_scalar(instance.gamma)}',
            f'"risk_model": {_scalar(instance.risk_model)}',
        ],
        "",
        "{}",
    )
    return (doc + "\n").encode("utf-8")

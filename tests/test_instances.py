"""Instance families and the JSON serialization round trip."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskroute import suites
from riskroute.instances import (
    FAMILIES,
    InstanceFormatError,
    make,
    read_instance,
    write_instance,
)
from riskroute.network import (
    RISK_MEAN_STDEV,
    RISK_MODELS,
    Edge,
    Instance,
    Network,
    validate_instance,
)

from paths import enumerate_simple_paths


# --- family construction -----------------------------------------------------


def test_pigou_construction():
    instance = make("pigou", gamma=1.0, kappa=1.0)
    net = instance.network
    assert instance.demand == 1.0 and instance.gamma == 1.0
    by_id = net.edge_map
    assert by_id["e1"].latency == (0.0, 2.0)
    assert by_id["e1"].risk == (0.0,)
    assert by_id["e2"].latency == (1.0,)
    assert by_id["e2"].risk == (1.0,)


def test_braess_construction():
    instance = make("braess", v=0.1)
    by_id = instance.network.edge_map
    assert instance.gamma == 1.0 and instance.demand == 1.0
    assert by_id["a"].latency == (0.0, 0.2)
    assert by_id["b"].latency == (1.0,)
    assert by_id["b"].risk == (0.1,)
    assert by_id["e"].latency == (0.9,)
    assert by_id["e"].risk == (0.0,)


def test_braess_general_validates_parameters():
    with pytest.raises(ValueError):
        make("braess_general", alpha=0.001, v=0.001)  # alpha below 2v
    with pytest.raises(ValueError):
        make("braess_general", alpha=1.5, v=0.5)  # alpha above 1
    with pytest.raises(ValueError):
        make("braess", v=0.0)
    with pytest.raises(ValueError):
        make("zigzag", k=1)


def test_zigzag_shape():
    # k rungs: k spokes in, k rungs, k spokes out, k - 1 connectors.
    for k in (2, 3, 4):
        net = make("zigzag", k=k).network
        assert len(net.edges) == 4 * k - 1
        assert len(net.nodes) == 2 * k + 2
        assert net.source == "s" and net.sink == "t"


def test_unknown_family_and_parameter_errors():
    with pytest.raises(ValueError):
        make("nonesuch", v=0.1)
    with pytest.raises(ValueError):
        make("braess")  # missing v
    with pytest.raises(ValueError):
        make("braess", v=0.1, extra=1)
    with pytest.raises(ValueError):
        make("random_sp", budget=2)  # missing seed
    with pytest.raises(ValueError):
        make("pigou", gamma=1.0, kappa=1.0, risk_model="quantile")


def test_families_listing():
    assert set(FAMILIES) == {
        "pigou",
        "braess",
        "braess_general",
        "zigzag",
        "random_sp",
        "random_general",
    }


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(["random_sp", "random_general"]),
    st.integers(min_value=0, max_value=10_000),
)
def test_random_families_always_validate(family, seed):
    if family == "random_sp":
        instance = make(family, seed=seed, budget=seed % 7)
    else:
        instance = make(family, seed=seed, n=4 + seed % 5, m=6 + seed % 7)
    verdict = validate_instance(instance)
    assert verdict.ok, verdict.violations


def test_same_seed_same_instance():
    a = make("random_general", seed=42, n=6, m=9)
    b = make("random_general", seed=42, n=6, m=9)
    assert write_instance(a) == write_instance(b)
    c = make("random_general", seed=43, n=6, m=9)
    assert write_instance(a) != write_instance(c)


def test_risk_model_parameter():
    instance = make("braess", v=0.1, risk_model=RISK_MEAN_STDEV)
    assert instance.risk_model == RISK_MEAN_STDEV


# --- serialization -----------------------------------------------------------


def test_round_trip_is_byte_identical():
    for instance in (
        make("pigou", gamma=0.5, kappa=0.25),
        make("braess", v=0.3),
        make("zigzag", k=4),
        make("random_sp", seed=9, budget=4),
        make("random_general", seed=9, n=7, m=11),
    ):
        data = write_instance(instance)
        again = write_instance(read_instance(data))
        assert data == again


def test_loaded_endpoints_are_the_declared_node_strings():
    """A loaded edge's tail and head, and the network's source and sink, are
    the very string objects of the declared nodes they name; an undeclared
    endpoint keeps its own string and is reported as before."""
    drawn = (make("zigzag", k=3), suites.random_general(7), make("random_sp", seed=3, budget=20))
    for instance in drawn:
        net = read_instance(write_instance(instance)).network
        nodes = {v: v for v in net.nodes}
        for e in net.edges:
            assert e.tail is nodes[e.tail] and e.head is nodes[e.head], e.id
        assert net.source is nodes[net.source] and net.sink is nodes[net.sink]
    doc = _braess_doc()
    doc["edges"][0]["head"] = "x"
    loaded = read_instance(json.dumps(doc))
    assert loaded.network.edges[0].head == "x"
    assert "edge 'a': undeclared head 'x'" in validate_instance(loaded).violations


def test_loaded_instances_stay_small():
    """Read and validated, the documents of the bound-chain draws (seeds
    0-499) and of n=20, m=60 draws (seeds 0-49), kept alive, hold at most
    600 traced bytes per edge: slotted edges of coefficient tuples whose
    endpoints are the nodes' strings. With an unslotted edge, a wrapper
    object per polynomial and a string per endpoint it took about 750."""
    docs = [write_instance(suites.random_general(seed)) for seed in range(500)]
    docs += [write_instance(make("random_general", seed=seed, n=20, m=60)) for seed in range(50)]
    kept = []
    tracemalloc.start()
    try:
        for data in docs:
            instance = read_instance(data)
            assert validate_instance(instance).ok
            kept.append(instance)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = sum(len(instance.network.edges) for instance in kept)
    assert held <= 600 * edges, held / edges


def test_random_sp_counts_paths_without_recursion():
    """A path cap on a long series chain is checked without recursing once
    per node: budget 3,000 draws validate, keep at most 6 paths and write
    the bytes they wrote when the count recursed (digests taken then, with
    the recursion limit raised)."""
    digests = {
        0: "238fe0daead00329ff867728a93521e426915fedd7e644c780a79f97daab3cb7",
        1: "27883e4fe6d1bd5f454c53543ff96f06b214240a8fba1f65bd8b5689d79f6dad",
    }
    for seed, digest in digests.items():
        instance = make("random_sp", seed=seed, budget=3000, max_paths=6)
        assert validate_instance(instance).ok
        assert len(enumerate_simple_paths(instance.network, cap=6)) <= 6
        assert hashlib.sha256(write_instance(instance)).hexdigest() == digest


def test_read_instance_field_errors():
    doc = json.loads(write_instance(make("braess", v=0.1)).decode())

    missing = dict(doc)
    del missing["demand"]
    with pytest.raises(InstanceFormatError, match="demand"):
        read_instance(json.dumps(missing))

    extra = dict(doc)
    extra["comment"] = "hi"
    with pytest.raises(InstanceFormatError, match="comment"):
        read_instance(json.dumps(extra))

    bad_edge = json.loads(json.dumps(doc))
    del bad_edge["edges"][0]["tail"]
    with pytest.raises(InstanceFormatError, match="tail"):
        read_instance(json.dumps(bad_edge))

    bad_latency = json.loads(json.dumps(doc))
    bad_latency["edges"][0]["latency"] = ["fast"]
    with pytest.raises(InstanceFormatError, match="latency"):
        read_instance(json.dumps(bad_latency))

    bad_demand = dict(doc)
    bad_demand["demand"] = True
    with pytest.raises(InstanceFormatError, match="demand"):
        read_instance(json.dumps(bad_demand))


def test_read_instance_rejects_non_json():
    with pytest.raises(InstanceFormatError) as info:
        read_instance(b"not json at all")
    assert str(info.value) == "not valid JSON: Expecting value: line 1 column 1 (char 0)"
    with pytest.raises(InstanceFormatError) as info:
        read_instance(b"[1, 2, 3]")
    assert str(info.value) == "top-level document must be an object"


def test_write_instance_canonical_order():
    doc = json.loads(write_instance(make("braess", v=0.1)).decode())
    assert list(doc) == [
        "name",
        "nodes",
        "edges",
        "source",
        "sink",
        "demand",
        "gamma",
        "risk_model",
    ]
    assert doc["nodes"] == sorted(doc["nodes"])


# --- the writer against the json reference ------------------------------------


def _json_reference(instance):
    """The canonical bytes as ``json.dumps(indent=2)`` prints the document."""
    net = instance.network
    doc = {
        "name": instance.name,
        "nodes": sorted(net.nodes),
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "latency": list(e.latency),
                "risk": list(e.risk),
            }
            for e in net.edges
        ],
        "source": net.source,
        "sink": net.sink,
        "demand": instance.demand,
        "gamma": instance.gamma,
        "risk_model": instance.risk_model,
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


FAMILY_ARGS = [
    ("pigou", None, {"gamma": 0.5, "kappa": 0.25}),
    ("braess", None, {"v": 0.1}),
    ("braess_general", None, {"alpha": 0.9, "v": 0.3}),
    ("zigzag", None, {"k": 4}),
    *(("random_sp", seed, {"budget": 2 + seed}) for seed in range(4)),
    *(("random_general", seed, {"n": 4 + seed, "m": 6 + 2 * seed}) for seed in range(4)),
]


@pytest.mark.parametrize("risk_model", RISK_MODELS)
@pytest.mark.parametrize("family, seed, params", FAMILY_ARGS)
def test_writer_matches_json_reference_on_every_family(family, seed, params, risk_model):
    instance = make(family, seed=seed, risk_model=risk_model, **params)
    assert write_instance(instance) == _json_reference(instance)


def _instance(nodes=("s", "t"), edges=(), demand=1.0, gamma=1.0, risk_model="mean-var", name="x"):
    network = Network(nodes=tuple(nodes), edges=tuple(edges), source="s", sink="t")
    return Instance(network, demand=demand, gamma=gamma, risk_model=risk_model, name=name)


@pytest.mark.parametrize(
    "value",
    [0, 7, -3, 10**30, True, False, math.nan, math.inf, -math.inf, -0.0, 5e-324,
     np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(math.inf)],
    ids=repr,
)
def test_writer_prints_numbers_as_json_does(value):
    edge = Edge("e", "s", "t", (value, 1.0), (value,))
    instance = _instance(edges=[edge], demand=value, gamma=value)
    assert write_instance(instance) == _json_reference(instance)


def test_writer_prints_empty_lists_as_json_does():
    for instance in (
        _instance(nodes=(), edges=()),
        _instance(edges=[Edge("e", "s", "t", (), ())]),
    ):
        assert write_instance(instance) == _json_reference(instance)


@pytest.mark.parametrize(
    "value", [object(), np.float32(0.5), np.int64(1)], ids=["object", "float32", "int64"]
)
def test_writer_rejects_what_json_cannot_hold(value):
    instance = _instance(edges=[Edge("e", "s", "t", (value,), (0.0,))])
    with pytest.raises(TypeError):
        _json_reference(instance)
    with pytest.raises(TypeError):
        write_instance(instance)


_awkward_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u2603\U0001f600'), st.characters()),
    max_size=6,
)
_any_number = st.one_of(
    st.floats(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    st.floats().map(np.float64),
)
_coefficients = st.lists(_any_number, max_size=4).map(tuple)
_edges = st.builds(Edge, _awkward_text, _awkward_text, _awkward_text, _coefficients, _coefficients)


@settings(deadline=None, max_examples=200)
@given(
    nodes=st.lists(_awkward_text, max_size=5),
    edges=st.lists(_edges, max_size=4),
    source=_awkward_text,
    sink=_awkward_text,
    demand=_any_number,
    gamma=_any_number,
    risk_model=_awkward_text,
    name=_awkward_text,
)
def test_writer_matches_json_reference_on_drawn_instances(
    nodes, edges, source, sink, demand, gamma, risk_model, name
):
    network = Network(nodes=tuple(nodes), edges=tuple(edges), source=source, sink=sink)
    instance = Instance(network, demand=demand, gamma=gamma, risk_model=risk_model, name=name)
    data = write_instance(instance)
    assert data == _json_reference(instance)
    assert data.isascii()


# --- every reader error, word for word ------------------------------------------


def _braess_doc():
    return json.loads(write_instance(make("braess", v=0.1)).decode())


def _parent(doc, path):
    """The container that holds ``doc[path[0]][path[1]]...``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _set(path, value):
    def edit(doc):
        _parent(doc, path)[path[-1]] = value

    return edit


def _delete(path):
    def edit(doc):
        del _parent(doc, path)[path[-1]]

    return edit


def _rename(edge, old, new):
    def edit(doc):
        doc["edges"][edge][new] = doc["edges"][edge].pop(old)

    return edit


READER_ERRORS = [
    ("unknown-top", _set(["comment"], "hi"), "unknown field 'comment' in instance"),
    ("missing-top", _delete(["demand"]), "missing field 'demand' in instance"),
    ("unknown-edge", _set(["edges", 1, "color"], "red"), "unknown field 'color' in edge #1"),
    ("missing-edge", _delete(["edges", 0, "tail"]), "missing field 'tail' in edge #0"),
    ("renamed-edge", _rename(2, "head", "to"), "unknown field 'to' in edge #2"),
    ("edge-not-object", _set(["edges", 2], ["a"]), "edge #2 must be an object"),
    ("edges-not-list", _set(["edges"], {}), "field 'edges' must be a list"),
    ("nodes-not-strings", _set(["nodes"], ["s", 1]), "field 'nodes' must be a list of strings"),
    ("name", _set(["name"], 3), "field 'name' must be a string"),
    ("id", _set(["edges", 0, "id"], None), "edge #0: field 'id' must be a string"),
    ("tail", _set(["edges", 1, "tail"], 1), "edge #1: field 'tail' must be a string"),
    ("head", _set(["edges", 4, "head"], ["t"]), "edge #4: field 'head' must be a string"),
    ("source", _set(["source"], ["s"]), "field 'source' must be a string"),
    ("sink", _set(["sink"], None), "field 'sink' must be a string"),
    ("risk-model", _set(["risk_model"], 1), "field 'risk_model' must be a string"),
    ("coeffs-not-list", _set(["edges", 0, "latency"], 1.0),
     "field edge #0 latency must be a list of numbers"),
    ("coeffs-empty", _set(["edges", 3, "risk"], []), "field edge #3 risk must not be empty"),
    ("bool-demand", _set(["demand"], True), "field 'demand' must be a number"),
    ("string-gamma", _set(["gamma"], "1.0"), "field 'gamma' must be a number"),
    ("bool-coefficient", _set(["edges", 1, "risk"], [0.1, False]),
     "field edge #1 risk must be a number"),
    ("string-coefficient", _set(["edges", 0, "latency"], ["fast"]),
     "field edge #0 latency must be a number"),
    ("huge-demand", _set(["demand"], 10**400), "field 'demand' is too large for a float"),
    ("huge-coefficient", _set(["edges", 4, "latency"], [0.0, 10**400]),
     "field edge #4 latency is too large for a float"),
]


@pytest.mark.parametrize(
    "edit, message", [case[1:] for case in READER_ERRORS], ids=[case[0] for case in READER_ERRORS]
)
def test_read_instance_error_messages(edit, message):
    doc = _braess_doc()
    edit(doc)
    with pytest.raises(InstanceFormatError) as info:
        read_instance(json.dumps(doc))
    assert str(info.value) == message

"""Instance families and the JSON serialization round trip."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from riskroute.instances import (
    FAMILIES,
    InstanceFormatError,
    make,
    read_instance,
    write_instance,
)
from riskroute.network import RISK_MEAN_STDEV, validate_instance


# --- family construction -----------------------------------------------------


def test_pigou_construction():
    instance = make("pigou", gamma=1.0, kappa=1.0)
    net = instance.network
    assert instance.demand == 1.0 and instance.gamma == 1.0
    by_id = net.edge_map
    assert by_id["e1"].latency.coeffs == (0.0, 2.0)
    assert by_id["e1"].risk.coeffs == (0.0,)
    assert by_id["e2"].latency.coeffs == (1.0,)
    assert by_id["e2"].risk.coeffs == (1.0,)


def test_braess_construction():
    instance = make("braess", v=0.1)
    by_id = instance.network.edge_map
    assert instance.gamma == 1.0 and instance.demand == 1.0
    assert by_id["a"].latency.coeffs == (0.0, 0.2)
    assert by_id["b"].latency.coeffs == (1.0,)
    assert by_id["b"].risk.coeffs == (0.1,)
    assert by_id["e"].latency.coeffs == (0.9,)
    assert by_id["e"].risk.coeffs == (0.0,)


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
    with pytest.raises(InstanceFormatError):
        read_instance(b"not json at all")
    with pytest.raises(InstanceFormatError):
        read_instance(b"[1, 2, 3]")


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

"""Request canonicalization: digest stability, resolution, rejection."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import default_system_config
from repro.errors import ExplorationError
from repro.explore.spec import CampaignSpec
from repro.serve.canonicalize import (
    CanonicalRequest,
    ServeError,
    canonical_from_point,
    canonicalize_compile,
    canonicalize_simulate,
    kernel_digest,
)
from repro.workloads.base import GRAPH_VARIANTS
from repro.workloads.registry import available_variants, get_workload, workload_names


def test_default_params_digest_identically_to_explicit_defaults():
    defaults = get_workload("matrixMul").params_with_defaults({})
    implicit = canonicalize_simulate({"workload": "matrixMul", "variant": "dmt"})
    explicit = canonicalize_simulate(
        {"workload": "matrixMul", "variant": "dmt", "params": dict(defaults)}
    )
    assert implicit.key == explicit.key
    assert implicit.kernel_digest == explicit.kernel_digest


def test_partial_config_digests_identically_to_spelled_out_default():
    leaf = default_system_config().to_dict()["token_buffer"]["entries"]
    bare = canonicalize_simulate({"workload": "matrixMul", "variant": "dmt"})
    spelled = canonicalize_simulate(
        {
            "workload": "matrixMul",
            "variant": "dmt",
            "config": {"token_buffer": {"entries": leaf}},
        }
    )
    assert bare.key == spelled.key
    assert bare.config_digest == spelled.config_digest


def test_overrides_change_config_digest_but_not_kernel_digest():
    base = canonicalize_simulate({"workload": "matrixMul", "variant": "dmt"})
    tweaked = canonicalize_simulate(
        {
            "workload": "matrixMul",
            "variant": "dmt",
            "overrides": {"token_buffer.entries": 8},
        }
    )
    assert base.key != tweaked.key
    assert base.kernel_digest == tweaked.kernel_digest


def test_engine_and_seed_are_part_of_the_key_but_not_the_kernel_digest():
    a = canonicalize_simulate({"workload": "matrixMul", "variant": "dmt", "seed": 0})
    b = canonicalize_simulate({"workload": "matrixMul", "variant": "dmt", "seed": 1})
    c = canonicalize_simulate({"workload": "matrixMul", "variant": "dmt", "engine": "event"})
    assert len({a.key, b.key, c.key}) == 3
    assert a.kernel_digest == b.kernel_digest == c.kernel_digest


def test_kernel_digest_helper_resolves_param_defaults():
    defaults = get_workload("matrixMul").params_with_defaults({})
    assert kernel_digest("matrixMul", "dmt") == kernel_digest(
        "matrixMul", "dmt", dict(defaults)
    )
    assert kernel_digest("matrixMul", "dmt") != kernel_digest("matrixMul", "dmt", {"dim": 4})


def test_canonical_from_point_matches_equivalent_http_body():
    spec = CampaignSpec(
        name="t",
        workloads=("matrixMul",),
        variants=("dmt",),
        seeds=(3,),
        params={"matrixMul": {"dim": 4}},
        grid=(("token_buffer.entries", (8,)),),
    )
    (point,) = spec.expand()
    via_point = canonical_from_point(point)
    via_body = canonicalize_simulate(
        {
            "workload": "matrixMul",
            "variant": "dmt",
            "seed": 3,
            "params": {"dim": 4},
            "overrides": {"token_buffer.entries": 8},
        }
    )
    assert via_point.key == via_body.key
    assert via_point.kernel_digest == via_body.kernel_digest


@pytest.mark.parametrize(
    "body,fragment",
    [
        ({"variant": "dmt"}, "workload"),
        ({"workload": "noSuchKernel", "variant": "dmt"}, "noSuchKernel"),
        ({"workload": "matrixMul", "variant": "noSuchVariant"}, "variant"),
        ({"workload": "matrixMul", "variant": "dmt", "engine": "warp"}, "engine"),
        ({"workload": "matrixMul", "variant": "dmt", "bogus": 1}, "bogus"),
        ({"workload": "matrixMul", "variant": "dmt", "params": {"dims": 4}}, "dims"),
        (
            {"workload": "matrixMul", "variant": "dmt", "overrides": {"token_buffer.depth": 1}},
            "token_buffer.depth",
        ),
        ({"workload": "matrixMul", "variant": "dmt", "seed": "zero"}, "seed"),
        ({"workload": "matrixMul", "variant": "dmt", "engine": "batched"}, "'auto', 'event'"),
        ({"workload": "matrixMul", "variant": "dmt", "seed": "1"}, "seed"),
        ({"workload": "matrixMul", "variant": "dmt", "seed": -5}, "seed"),
        ({"workload": "matrixMul", "variant": "dmt", "seed": 1.9}, "seed"),
        ({"workload": "matrixMul", "variant": "dmt", "seed": 1.0}, "seed"),
        ({"workload": "matrixMul", "variant": "dmt", "seed": True}, "seed"),
        ({"workload": "bpnn", "variant": "dmt_win"}, "dmt_win"),
    ],
)
def test_bad_simulate_bodies_raise_serve_error_400(body, fragment):
    with pytest.raises(ServeError) as excinfo:
        canonicalize_simulate(body)
    assert excinfo.value.status == 400
    assert fragment in str(excinfo.value)


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except (ServeError, ExplorationError):
        return False
    return True


@pytest.mark.parametrize("name", workload_names())
def test_front_ends_accept_exactly_the_variants_the_workload_builds(name):
    built = available_variants(get_workload(name))
    for variant in ("fermi", *GRAPH_VARIANTS, "junk"):
        body = {"workload": name, "variant": variant}
        runs = variant == "fermi" or variant in built
        assert _accepts(canonicalize_simulate, body) == runs, variant
        assert _accepts(canonicalize_compile, body) == (variant in built), variant
        spec = {"name": "v", "workloads": [name], "variants": [variant]}
        assert _accepts(CampaignSpec.from_dict, spec) == runs, variant


@pytest.mark.parametrize("canonicalize", [canonicalize_simulate, canonicalize_compile])
@pytest.mark.parametrize(
    "config",
    [{"grid": {"rows": "x"}}, {"cores": None}, {"cores": True}],
    ids=["str-rows", "null-cores", "bool-cores"],
)
def test_wrong_typed_config_values_raise_serve_error_400(canonicalize, config):
    with pytest.raises(ServeError) as excinfo:
        canonicalize({"workload": "matrixMul", "config": config})
    assert excinfo.value.status == 400
    assert "expected" in str(excinfo.value)


def test_wrong_typed_override_raises_serve_error_400():
    with pytest.raises(ServeError) as excinfo:
        canonicalize_simulate({"workload": "matrixMul", "overrides": {"cores": "x"}})
    assert excinfo.value.status == 400
    assert "cores" in str(excinfo.value)


@pytest.mark.parametrize("alias", [True, 1.0], ids=["bool", "float"])
def test_override_type_is_checked_after_an_equal_value_was_memoised(alias):
    canonicalize_simulate({"workload": "matrixMul", "overrides": {"cores": 1}})
    with pytest.raises(ServeError, match="expected int"):
        canonicalize_simulate({"workload": "matrixMul", "overrides": {"cores": alias}})


@pytest.mark.parametrize("canonicalize", [canonicalize_simulate, canonicalize_compile])
@pytest.mark.parametrize(
    "params",
    [
        {"dim": "x"},
        {"dim": None},
        {"dim": -3},
        {"dim": 0},
        {"dim": True},
        {"dim": 8.0},
    ],
    ids=["str", "null", "negative", "zero", "bool", "float"],
)
def test_wrong_typed_or_non_positive_size_params_raise_serve_error_400(canonicalize, params):
    with pytest.raises(ServeError) as excinfo:
        canonicalize({"workload": "matrixMul", "params": params})
    assert excinfo.value.status == 400
    assert "'dim'" in str(excinfo.value)


@pytest.mark.parametrize(
    "value,ok",
    [(0.75, True), (1, True), ("x", False), (None, False), (False, False)],
    ids=["float", "int", "str", "null", "bool"],
)
def test_float_params_take_ints_and_floats_only(value, ok):
    body = {"workload": "hotspot", "params": {"step": value}}
    if ok:
        assert isinstance(canonicalize_simulate(body), CanonicalRequest)
    else:
        with pytest.raises(ServeError, match="'step'"):
            canonicalize_simulate(body)


def test_compile_rejects_fermi_and_simulate_only_keys():
    with pytest.raises(ServeError) as excinfo:
        canonicalize_compile({"workload": "matrixMul", "variant": "fermi"})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError):
        canonicalize_compile({"workload": "matrixMul", "variant": "dmt", "seed": 1})


def test_compile_key_is_stable_and_config_sensitive():
    a = canonicalize_compile({"workload": "matrixMul", "variant": "dmt"})
    b = canonicalize_compile({"workload": "matrixMul", "variant": "dmt", "params": {"dim": 16}})
    c = canonicalize_compile(
        {"workload": "matrixMul", "variant": "dmt", "config": {"token_buffer": {"entries": 8}}}
    )
    assert a.key == b.key  # dim=16 is the default
    assert a.key != c.key


# ------------------------------------------------------------- body fuzzing
#: Valid bodies whose every key, parameter, config leaf and override the
#: fuzz replaces.
VALID_BODIES = {
    canonicalize_simulate: {
        "workload": "matrixMul",
        "variant": "dmt",
        "engine": "auto",
        "seed": 0,
        "params": {"dim": 8},
        "config": {
            "cores": 2,
            "core_clock_ghz": 1.4,
            "grid": {"rows": 10},
            "memory": {"l1": {"write_back": True}},
        },
        "overrides": {"cores": 4, "token_buffer.entries": 8},
    },
    canonicalize_compile: {
        "workload": "matrixMul",
        "variant": "dmt",
        "params": {"dim": 8},
        "config": {"cores": 2, "core_clock_ghz": 1.4, "grid": {"rows": 10}},
    },
}


def _slots(body, prefix=()):
    """Paths of every top-level key and every leaf under ``params``,
    ``config`` and ``overrides``."""
    for key, value in body.items():
        path = (*prefix, key)
        yield path
        if isinstance(value, dict) and (prefix or key in ("params", "config", "overrides")):
            yield from _slots(value, path)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=5,
)


@st.composite
def fuzzed_bodies(draw):
    canonicalize = draw(st.sampled_from(list(VALID_BODIES)))
    body = copy.deepcopy(VALID_BODIES[canonicalize])
    paths = draw(st.lists(st.sampled_from(list(_slots(body))), min_size=1, max_size=3))
    for path in paths:
        node = body
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict) or path[-1] not in node:
            continue  # an earlier replacement removed this slot's parent
        old = node[path[-1]]
        node[path[-1]] = draw(json_values.filter(lambda new: type(new) is not type(old)))
    return canonicalize, body


@pytest.mark.slow
@settings(deadline=None, max_examples=300)
@given(fuzzed_bodies())
def test_fuzzed_bodies_canonicalize_or_raise_serve_error_4xx(case):
    """Any value of another JSON type in any slot of a valid body yields a
    canonical request or a 4xx ``ServeError``, never another exception."""
    canonicalize, body = case
    try:
        request = canonicalize(body)
    except ServeError as exc:
        assert 400 <= exc.status < 500
    else:
        assert isinstance(request, CanonicalRequest)
        # Only an int seed of at least 0 gets a key; no other JSON value
        # may alias one (``true`` or ``1.9`` to seed 1).
        seed = body.get("seed", 0)
        assert type(seed) is int and seed >= 0 and request.point.seed == seed

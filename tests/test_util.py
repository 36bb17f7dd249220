"""Quadrature nodes, deterministic sums, grids, and report serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiweyl import util


def test_gauss_nodes_small_rule_exactness():
    x, w = util.gauss_nodes(20)
    assert len(x) == 20
    assert np.all((x > -1.0) & (x < 1.0))
    assert np.all(w > 0)
    assert math.fsum(w) == pytest.approx(2.0, abs=1e-14)
    # degree 2n-1 polynomials integrate exactly
    got = float(np.dot(w, x ** 38))
    assert got == pytest.approx(2.0 / 39.0, rel=1e-14)


def test_gauss_nodes_panel_rule():
    x, w = util.gauss_nodes(1000)
    assert len(x) >= 1000
    assert len(x) % 16 == 0
    assert math.fsum(w) == pytest.approx(2.0, abs=1e-13)
    # spectrally accurate on smooth integrands even though not a single rule
    got = float(np.dot(w, np.exp(x)))
    assert got == pytest.approx(math.e - 1.0 / math.e, rel=1e-14)
    osc = complex(np.dot(w, np.exp(1j * 50.0 * x)))
    assert abs(osc - 2.0 * math.sin(50.0) / 50.0) <= 1e-12


def test_gauss_nodes_cached_and_frozen():
    x1, _ = util.gauss_nodes(64)
    x2, _ = util.gauss_nodes(64)
    assert x1 is x2
    with pytest.raises(ValueError):
        x1[0] = 0.0


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(10001) * 10.0 ** rng.integers(-8, 8, 10001)
    assert util.pairwise_sum(a) == pytest.approx(math.fsum(a), rel=1e-12)


def test_pairwise_sum_edge_cases():
    assert util.pairwise_sum([]) == 0.0
    assert util.pairwise_sum([3.25]) == 3.25
    z = util.pairwise_sum(np.array([1 + 2j, 3 - 1j, -4 + 0.5j]))
    assert z == pytest.approx(0.0 + 1.5j)


_SHORT_VALUES = st.one_of(
    st.floats(-1e6, 1e6),  # alike magnitudes, where the pairing shows in the bits
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308 / 3, 1.7976931348623157e308]))


@settings(max_examples=400, deadline=None)
@given(st.lists(_SHORT_VALUES, min_size=1, max_size=2 * util._SHORT_SUM))
def test_short_sums_keep_the_numpy_tree(values):
    """A short 1-D sum runs the tree on Python floats; it must keep the bits
    of the numpy tree, which a one-row 2-D input still takes.  Where two NaNs
    meet, IEEE 754 leaves open whose payload the sum carries, and Python and
    numpy pick differently: a NaN sum need only be NaN."""
    a = np.array(values)
    with np.errstate(all="ignore"):  # inf - inf and overflow warn in numpy only
        got, want = util.pairwise_sum(a), util.pairwise_sum(a[None, :])[0]
    assert type(got) is np.float64
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got.tobytes() == want.tobytes()


def test_pairwise_sum_rows_match_single_sums():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 37))
    assert util.pairwise_sum(a).tolist() == [util.pairwise_sum(row) for row in a]
    assert util.pairwise_sum(np.zeros((4, 0))).tolist() == [0.0] * 4


def test_pairwise_sum_deterministic():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(4097)
    assert util.pairwise_sum(a) == util.pairwise_sum(a.copy())


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 6), blocks=st.integers(0, 5), offset=st.integers(-2, 2),
       complex_input=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_pairwise_sum_is_the_whole_sum(k, blocks, offset, complex_input, seed):
    # blocks of 2^k aligned at 0, the tail block shorter: the sum of the
    # block sums is bit for bit the sum of the whole array
    n = max(1, blocks * 2**k + offset)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    if complex_input:
        a = a + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    sums = np.array([util.pairwise_sum(a[i : i + 2**k]) for i in range(0, n, 2**k)])
    assert util.pairwise_sum(sums).tobytes() == util.pairwise_sum(a).tobytes()


def test_geometric_grid():
    g = util.geometric_grid(1.0, 16.0, 2.0)
    assert np.allclose(g, [1.0, 2.0, 4.0, 8.0, 16.0], rtol=1e-15)
    # stop appended when the last power falls short
    g = util.geometric_grid(1.0, 20.0, 2.0)
    assert g[-1] == 20.0
    with pytest.raises(ValueError):
        util.geometric_grid(-1.0, 10.0)
    with pytest.raises(ValueError):
        util.geometric_grid(1.0, 10.0, 0.5)


@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_format_float_round_trips(x):
    assert float(util.format_float(x)) == float(x)


def test_json_dumps_structure():
    obj = {"name": "probe", "n": 3, "ok": True, "gap": None,
           "vals": [0.1, 1.0 / 3.0], "nested": {"x": 2.5}}
    text = util.json_dumps(obj)
    back = json.loads(text)
    assert back["vals"][0] == 0.1
    assert back["vals"][1] == 1.0 / 3.0
    assert back["nested"]["x"] == 2.5
    assert back["gap"] is None and back["ok"] is True and back["n"] == 3


def test_json_dumps_rejects_bad_values():
    with pytest.raises(TypeError):
        util.json_dumps({"x": object()})


def test_json_dumps_writes_non_finite_floats_as_null():
    # a failed measurement may be nan; JSON has no such number
    text = util.json_dumps({"x": math.inf, "y": [np.float64("nan"), -math.inf, 1.5]})
    assert json.loads(text) == {"x": None, "y": [None, None, 1.5]}


def test_atomic_write_text(tmp_path):
    target = tmp_path / "sub" / "report.json"
    util.atomic_write_text(target, "one\n")
    util.atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"
    leftovers = [p for p in (tmp_path / "sub").iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_csv_text():
    text = util.csv_text(["a", "b", "c"], [[1, 0.5, "x"], [2, 1.0 / 3.0, ""]])
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1].startswith("1,0.5,")
    assert float(lines[2].split(",")[1]) == 1.0 / 3.0
    assert text.endswith("\n")

"""The scheme's structural guarantees as properties of `run_scheme`.

Custom schedules mix constant runs with staircase stretches n, n - 1, ...,
so that decompositions are derived and certified; sparse data leave weights
or gaps too small to separate, so that `eigh` is taken instead; and the
certificate can be made to decline chosen steps, so that `eigh` takes
them and the chain restarts from its dense check.  The explicit examples
pin each of those paths.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laxflow import propagator
from laxflow.scheme import Schedule, SchemeConfig, hardy_l2, mass, run_scheme
from laxflow.spectral import HardyVector, RealSpectrum, project_hardy
from oracles import scheme_by_brute_force

EQUATIONS = ("BO", "CCM-focusing", "CCM-defocusing")


@st.composite
def schedule_values(draw):
    """n(0..K-1) in [0, K], K <= 24, as constant runs and staircase stretches."""
    K = draw(st.integers(1, 24))
    values = []
    while len(values) < K:
        start = draw(st.integers(0, K))
        length = draw(st.integers(1, K - len(values)))
        step = draw(st.sampled_from([0, 1]))
        values += [max(start - step * i, 0) for i in range(length)]
    return values


def datum(equation, K, seed, density, norm):
    """Random coefficients at 0..K-1, each kept with probability `density`,
    scaled to `norm` (for focusing CCM, norm < 1)."""
    rng = np.random.default_rng(seed)
    c = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) * (rng.random(K) < density)
    c[0] = c[0].real if c.any() else 1.0
    c *= norm / np.linalg.norm(c)
    if equation == "BO":
        return RealSpectrum.from_hardy_part(c, K)
    return HardyVector(c)


def run(cfg, declined):
    """run_scheme with the certificate declining every derived L_n, n in declined."""
    certify = propagator._certify

    def declining(parent, d):
        return None if len(d.mu) in declined else certify(parent, d)

    with mock.patch.object(propagator, "_certify", declining):
        return run_scheme(cfg)


# (inputs, the (derived, fallbacks) counts they must give)
PATHS = [
    # a full staircase, each decomposition after the first derived and certified
    (dict(equation="CCM-defocusing", values=list(range(12, 0, -1)), later=[-1000.0, 3.5],
          seed=1, density=1.0, norm=0.9, declined=set()), (10, 0)),
    # the certificate declines twice: two eigh results, and chains restarting from them
    (dict(equation="BO", values=[10] + list(range(10, 0, -1)) + [4, 4], later=[999.5],
          seed=2, density=1.0, norm=0.6, declined={8, 3}), (7, 2)),
    # a single-mode datum: a diagonal block, so eigh is taken at every step
    (dict(equation="CCM-focusing", values=[6, 6, 5, 4, 3, 0], later=[2.0],
          seed=3, density=0.0, norm=0.5, declined=set()), (0, 3)),
]


def config(equation, values, later, seed, density, norm):
    K = len(values)
    u0 = datum(equation, K, seed, density, norm if equation == "CCM-focusing" else 2 * norm)
    return SchemeConfig(equation, Schedule(K, "custom", values), [0.0] + later, u0)


@pytest.mark.parametrize("inputs, counts", PATHS)
def test_examples_reach_every_path(inputs, counts):
    inputs = dict(inputs)
    declined = inputs.pop("declined")
    cache = run(config(**inputs), declined).cache
    assert (cache.derived, cache.fallbacks) == counts


@settings(max_examples=100, deadline=None)
@given(
    equation=st.sampled_from(EQUATIONS),
    values=schedule_values(),
    later=st.lists(st.floats(-1000.0, 1000.0, allow_nan=False).filter(bool),
                   max_size=2, unique=True),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.2, 1.0]),
    norm=st.floats(0.05, 0.95),
    declined=st.sets(st.integers(1, 23), max_size=3),
)
def test_scheme_properties(equation, values, later, seed, density, norm, declined):
    cfg = config(equation, values, later, seed, density, norm)
    sched, times, u0 = cfg.schedule, cfg.times, cfg.u0
    out = run(cfg, declined)

    h0 = project_hardy(u0) if equation == "BO" else u0
    for i, t in enumerate(times):
        if values[0] >= 1:
            assert abs(mass(out, t) - u0.coeff(0).real) <= 1e-12
        assert hardy_l2(out, t) <= out.seed_norm + 1e-12
        tail = np.linalg.norm(out.final_iterate[:, i]) ** 2
        assert abs(tail + hardy_l2(out, t) ** 2 - out.seed_norm**2) <= 1e-12
        if sched.l2_preserving:
            assert np.max(np.abs(out.final_iterate[:, i]), initial=0.0) <= 1e-12
        oracle = scheme_by_brute_force(u0.coeff, h0.coeffs, values, equation, t)
        np.testing.assert_allclose(out.coeffs[i], oracle, rtol=0, atol=1e-9)
    again = run(cfg, declined)
    assert again.coeffs.tobytes() == out.coeffs.tobytes()
    cache = out.cache
    assert cache.derived + cache.fallbacks <= cache.decompositions


for inputs, _ in PATHS:
    test_scheme_properties = example(**inputs)(test_scheme_properties)

# long runs in the eigenbasis body while rows leave the block and rejoin it,
# so that tail rows change basis between runs
for equation in EQUATIONS:
    test_scheme_properties = example(
        equation=equation, values=[24] + [10] * 7 + [4] * 8 + [14] * 8, later=[3.5, -700.25],
        seed=4, density=1.0, norm=0.5, declined=set())(test_scheme_properties)

"""``scaling_decision`` against the controller it replaced.

The oracle (``OracleAutoscalingController`` in ``oracles.py``) is the
class the rule was before it became one function: a uniform entry for
fluid planes, a list entry over per-worker reports, and the ``_decide``
both share.  Up to ``max_workers`` the rule must return what either
entry returns — the same delta, action and reason — on every input,
thresholds included.  Above the cap the oracle's launch branch drains
(``min(scale_up_step, max_workers - n)`` is negative there); the rule
holds instead, and that is what is asserted in that region.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.dpp import AutoscalerConfig, ScalingDecision, scaling_decision

from .oracles import OracleAutoscalingController, OracleWorkerTelemetry


@st.composite
def configs(draw):
    min_buffered = draw(st.sampled_from([0.0, 1.0, 5.0]) | st.floats(0, 20))
    drain_buffered = min_buffered + draw(
        st.sampled_from([1.0, 5.0, 25.0]) | st.floats(0.01, 40)
    )
    min_workers = draw(st.integers(1, 4))
    return AutoscalerConfig(
        min_buffered_per_worker=min_buffered,
        drain_buffered_per_worker=drain_buffered,
        low_utilization=draw(st.sampled_from([0.5]) | st.floats(0.01, 0.99)),
        scale_up_step=draw(st.integers(1, 5)),
        drain_step=draw(st.integers(1, 5)),
        min_workers=min_workers,
        max_workers=min_workers + draw(st.integers(0, 8)),
    )


def buffers(config):
    """Buffered tensors per worker, the two thresholds coming up often."""
    return st.sampled_from(
        [0.0, config.min_buffered_per_worker, config.drain_buffered_per_worker]
    ) | st.floats(0, 2 * config.drain_buffered_per_worker + 1, allow_nan=False)


def utilizations(config):
    """Mean utilizations, negative ones and the threshold included."""
    return st.sampled_from([config.low_utilization, 0.0, -0.0, 1.0]) | st.floats(
        -1.0, 1.5, allow_nan=False
    )


def expected(config, n_workers, oracle_decision):
    """The oracle's decision, with the scale-up branch fixed above the
    cap: a pool over ``max_workers`` with low buffers holds."""
    if n_workers > config.max_workers and oracle_decision.reason.startswith(
        "buffers low"
    ):
        return ScalingDecision(0, oracle_decision.reason)
    return oracle_decision


def assert_same(ours, theirs):
    assert (ours.delta, ours.action, ours.reason) == (
        theirs.delta,
        theirs.action,
        theirs.reason,
    )


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_rule_matches_the_uniform_entry(data):
    config = data.draw(configs())
    n_workers = data.draw(st.integers(0, config.max_workers + 3))
    buffered = data.draw(buffers(config))
    utilization = data.draw(utilizations(config))
    theirs = OracleAutoscalingController(config).evaluate_uniform(
        n_workers, buffered, utilization
    )
    ours = scaling_decision(config, n_workers, buffered, utilization)
    assert_same(ours, expected(config, n_workers, theirs))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_session_aggregates_match_the_list_entry(data):
    """The session passes the worker-order means of its live workers'
    buffers and CPU utilizations; the list entry averaged per-worker
    reports whose memory and network utilizations were zero."""
    config = data.draw(configs())
    n_workers = data.draw(st.integers(0, config.max_workers + 3))
    buffered = data.draw(
        st.lists(st.integers(0, 40), min_size=n_workers, max_size=n_workers)
    )
    cpu = data.draw(
        st.lists(st.floats(0, 1), min_size=n_workers, max_size=n_workers)
    )
    telemetry = [
        OracleWorkerTelemetry(f"w{i}", b, c, 0.0, 0.0)
        for i, (b, c) in enumerate(zip(buffered, cpu))
    ]
    theirs = OracleAutoscalingController(config).evaluate(telemetry)
    ours = scaling_decision(
        config,
        n_workers,
        sum(buffered) / (n_workers or 1),
        sum(cpu) / (n_workers or 1),
    )
    assert_same(ours, expected(config, n_workers, theirs))


@given(configs(), st.integers(1, 4), st.data())
def test_low_buffers_above_the_cap_hold(config, over, data):
    assume(config.min_buffered_per_worker > 0)
    buffered = data.draw(
        st.floats(0, config.min_buffered_per_worker, exclude_max=True)
    )
    decision = scaling_decision(
        config,
        config.max_workers + over,
        buffered,
        data.draw(utilizations(config)),
    )
    assert decision.delta == 0
    assert decision.reason.startswith("buffers low")

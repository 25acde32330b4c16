import math

import numpy as np
import pytest

from parksearch.availability import (
    AdaptionOverlay,
    AvailabilityRates,
    CtmcParams,
    expected_wait_times_rates,
    stationary_availability,
)

from ctmc_oracle import (
    ResourceBelief,
    ResourceState,
    availability_probability,
    expected_wait_time,
    sample_future_state,
    sample_sojourn,
    transition_probability,
)

A = ResourceState.AVAILABLE
O = ResourceState.OCCUPIED


def availability_after_rates(lam, mu, dt, available_now):
    """Oracle: the availability rule with its rate terms rebuilt on every call, as it was computed
    before ``AvailabilityRates`` kept them per run."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    dt = np.asarray(dt, dtype=float)
    total = lam + mu
    pi_a = mu / total
    decay = np.exp(-total * dt)
    return pi_a + np.where(np.asarray(available_now, dtype=bool), 1.0 - pi_a, -pi_a) * decay


def transition_matrix(params, t):
    return np.array([
        [transition_probability(params, A, A, t), transition_probability(params, A, O, t)],
        [transition_probability(params, O, A, t), transition_probability(params, O, O, t)],
    ])


def simulate_chains(params, start_available, t, n, rng):
    """Monte Carlo oracle: alternate exponential sojourns and read the state at time t."""
    state = np.full(n, start_available, dtype=bool)
    clock = np.zeros(n)
    active = np.ones(n, dtype=bool)
    while active.any():
        rate = np.where(state, params.lam, params.mu)
        clock = clock + np.where(active, rng.exponential(1.0 / rate), 0.0)
        flip = active & (clock < t)
        state[flip] = ~state[flip]
        active = flip
    return state


def test_identity_at_zero(default_params):
    assert transition_probability(default_params, A, A, 0.0) == 1.0
    assert transition_probability(default_params, O, A, 0.0) == 0.0


def test_long_run_availability_is_5_4_percent(default_params):
    # limit of both rows is the long-run availability
    assert stationary_availability(default_params) == pytest.approx(0.054, abs=5e-4)
    assert transition_probability(default_params, O, A, 1e9) == pytest.approx(0.0542740, abs=1e-6)
    assert transition_probability(default_params, A, A, 1e9) == pytest.approx(0.0542740, abs=1e-6)


def test_one_minute_from_available(default_params):
    assert transition_probability(default_params, A, A, 60.0) == pytest.approx(0.612, abs=5e-4)


def test_transition_matches_monte_carlo(default_params):
    rng = np.random.default_rng(123)
    emp = simulate_chains(default_params, True, 60.0, 100_000, rng).mean()
    assert transition_probability(default_params, A, A, 60.0) == pytest.approx(emp, abs=0.01)


def test_rows_sum_to_one():
    rng = np.random.default_rng(17)
    for _ in range(50):
        params = CtmcParams(float(rng.uniform(1e-4, 0.1)), float(rng.uniform(1e-4, 0.1)))
        t = float(rng.uniform(0, 5000))
        P = transition_matrix(params, t)
        assert abs(P[0].sum() - 1.0) < 1e-12
        assert abs(P[1].sum() - 1.0) < 1e-12


def test_chapman_kolmogorov():
    rng = np.random.default_rng(29)
    for _ in range(50):
        params = CtmcParams(float(rng.uniform(1e-4, 0.05)), float(rng.uniform(1e-4, 0.05)))
        s = float(rng.uniform(0, 2000))
        t = float(rng.uniform(0, 2000))
        lhs = transition_matrix(params, s) @ transition_matrix(params, t)
        rhs = transition_matrix(params, s + t)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_monotone_convergence(default_params):
    pi = stationary_availability(default_params)
    ts = np.linspace(0.0, 5000.0, 200)
    gaps = [abs(transition_probability(default_params, A, A, t) - pi) for t in ts]
    assert all(gaps[i + 1] <= gaps[i] + 1e-15 for i in range(len(gaps) - 1))


def test_negative_dt_rejected(default_params):
    with pytest.raises(ValueError):
        transition_probability(default_params, A, A, -1.0)


def test_rate_validation():
    with pytest.raises(ValueError):
        CtmcParams(0.0, 1.0)
    with pytest.raises(ValueError):
        CtmcParams(1.0, -2.0)


def test_availability_probability_at_anchor(default_params):
    belief = ResourceBelief("r", A, anchor_time=100.0, params=default_params)
    assert availability_probability(belief, 100.0) == 1.0
    with pytest.raises(ValueError):
        availability_probability(belief, 99.0)


def test_overlay_subtraction_and_clamp():
    # lam = mu makes T available->available = 0.5 + 0.5 exp(-2 lam t); solve for base 0.6
    params = CtmcParams(0.01, 0.01)
    dt = -math.log(0.2) / 0.02
    belief = ResourceBelief("r", A, 0.0, params)
    assert availability_probability(belief, dt) == pytest.approx(0.6, abs=1e-12)

    overlay = AdaptionOverlay()
    overlay.add("r", activation_time=dt - 1.0, delta=0.25, owner="a1")
    assert availability_probability(belief, dt, overlay) == pytest.approx(0.35, abs=1e-12)

    overlay.add("r", activation_time=0.0, delta=0.40, owner="a2")
    assert availability_probability(belief, dt, overlay) == 0.0  # clamped

    # deltas that activate later do not count yet
    overlay2 = AdaptionOverlay()
    overlay2.add("r", activation_time=dt + 1.0, delta=0.5, owner="a1")
    assert availability_probability(belief, dt, overlay2) == pytest.approx(0.6, abs=1e-12)


def test_overlay_owner_exclusion():
    params = CtmcParams(0.01, 0.01)
    belief = ResourceBelief("r", A, 0.0, params)
    overlay = AdaptionOverlay()
    overlay.add("r", 0.0, 0.3, owner="me")
    overlay.add("r", 0.0, 0.2, owner="other")
    base = availability_probability(belief, 0.0)
    assert availability_probability(belief, 0.0, overlay, exclude_owner="me") == pytest.approx(base - 0.2)
    assert availability_probability(belief, 0.0, overlay) == pytest.approx(base - 0.5)


def test_expected_wait_time_formula(default_params):
    p = transition_probability(default_params, O, A, 120.0)
    assert expected_wait_time(default_params, 120.0) == 120.0 / p
    assert expected_wait_time(default_params, 120.0) == pytest.approx(3387.75, abs=0.5)
    with pytest.raises(ValueError):
        expected_wait_time(default_params, 0.0)


def test_expected_wait_limit_two_round_trips():
    params = CtmcParams(0.004, 0.004)  # lam = mu
    t_tr = 100.0 / (params.lam + params.mu)
    assert expected_wait_time(params, t_tr) == pytest.approx(2.0 * t_tr, rel=1e-6)


def test_expected_wait_matches_round_trip_oracle(default_params):
    # Oracle: simulate sojourn chains from occupied and average the first
    # multiple of t_tr at which the chain is available.
    t_tr = 120.0
    n = 100_000
    rng = np.random.default_rng(99)
    state = np.zeros(n, dtype=bool)  # occupied
    clock = rng.exponential(1.0 / default_params.mu, size=n)  # first flip to available
    trips = np.ones(n)
    # chain is available on [clock, clock + exp(lam)), occupied again after, and so on
    waits = np.full(n, np.nan)
    t_check = np.full(n, t_tr)
    avail_until = clock + rng.exponential(1.0 / default_params.lam, size=n)
    for _ in range(10_000):
        undecided = np.isnan(waits)
        if not undecided.any():
            break
        hit = undecided & (t_check >= clock) & (t_check < avail_until)
        waits[hit] = t_check[hit]
        miss = undecided & ~hit
        before = miss & (t_check < clock)
        t_check[before] += t_tr
        after = miss & (t_check >= avail_until)
        nxt = rng.exponential(1.0 / default_params.mu, size=int(after.sum()))
        clock[after] = avail_until[after] + nxt
        avail_until[after] = clock[after] + rng.exponential(1.0 / default_params.lam, size=int(after.sum()))
    assert not np.isnan(waits).any()
    assert expected_wait_time(default_params, t_tr) == pytest.approx(waits.mean(), rel=0.05)


def test_sample_future_state(default_params):
    rng = np.random.default_rng(1)
    avail_now = ResourceBelief("r", A, 0.0, default_params)
    occ_now = ResourceBelief("r", O, 0.0, default_params)
    assert sample_future_state(avail_now, 0.0, rng) is A
    assert sample_future_state(occ_now, 0.0, rng) is O

    draws = sum(sample_future_state(avail_now, 60.0, rng) is A for _ in range(100_000))
    assert draws / 100_000 == pytest.approx(0.612, abs=0.005)


def test_sample_sojourn_means(default_params):
    rng = np.random.default_rng(8)
    avail = np.array([sample_sojourn(default_params, A, rng) for _ in range(100_000)])
    occ = np.array([sample_sojourn(default_params, O, rng) for _ in range(100_000)])
    assert (avail > 0).all() and (occ > 0).all()
    assert avail.mean() == pytest.approx(120.0, abs=2.0)
    assert occ.mean() == pytest.approx(2091.0, abs=40.0)


def test_sampling_deterministic_with_seed(default_params):
    belief = ResourceBelief("r", A, 0.0, default_params)
    a = [sample_future_state(belief, 60.0, np.random.default_rng(5)) for _ in range(1)]
    b = [sample_future_state(belief, 60.0, np.random.default_rng(5)) for _ in range(1)]
    assert a == b
    s1 = [sample_sojourn(default_params, A, np.random.default_rng(5)) for _ in range(3)]
    s2 = [sample_sojourn(default_params, A, np.random.default_rng(5)) for _ in range(3)]
    assert s1 == s2


def test_overlay_reversal_restores_exactly(default_params):
    rng = np.random.default_rng(21)
    overlay = AdaptionOverlay()
    belief = {rid: ResourceBelief(rid, A, 0.0, default_params) for rid in ("r1", "r2", "r3")}
    keepers = ("keeper0", "keeper1", "keeper2")
    for rid, owner in zip(("r1", "r2", "r2"), keepers):
        overlay.add(rid, float(rng.uniform(0, 100)), float(rng.uniform(0, 0.2)), owner)
    probes = [(rid, float(rng.uniform(0, 500))) for rid in ("r1", "r2", "r3") for _ in range(4)]
    before = [availability_probability(belief[rid], t, overlay) for rid, t in probes]

    for _ in range(10):
        overlay.add(str(rng.choice(["r1", "r2", "r3"])), float(rng.uniform(0, 100)),
                    float(rng.uniform(0, 0.3)), "tmp")
    overlay.withdraw("tmp")
    after = [availability_probability(belief[rid], t, overlay) for rid, t in probes]
    assert after == before  # bit-exact
    assert len(overlay) == len(keepers)

    overlay.withdraw("tmp")  # a second withdrawal changes nothing
    assert [availability_probability(belief[rid], t, overlay) for rid, t in probes] == before
    assert len(overlay) == len(keepers)

    # emptiness is read without counting entries; it must agree with len()
    for owner in keepers:
        assert overlay and len(overlay) > 0
        overlay.withdraw(owner)
    assert not overlay and len(overlay) == 0


def test_rates_vectorization_matches_scalar(default_params):
    rng = np.random.default_rng(4)
    lam = rng.uniform(1e-4, 0.05, size=20)
    mu = rng.uniform(1e-4, 0.05, size=20)
    dt = rng.uniform(0, 2000, size=20)
    avail = rng.random(20) < 0.5
    vec = AvailabilityRates(lam, mu).after(dt, avail)
    for i in range(20):
        p = CtmcParams(float(lam[i]), float(mu[i]))
        frm = A if avail[i] else O
        assert vec[i] == pytest.approx(transition_probability(p, frm, A, float(dt[i])), rel=1e-12)


def test_view_availability_matches_oracle():
    # The planners' vectorized prediction against the scalar oracle, on random
    # worlds with per-resource rates and overlay deltas from several owners,
    # the viewing agent among them (its own deltas must not count).
    from parksearch.planners import PlanningView

    from conftest import make_context, random_graph_doc

    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(40):
        graph, ctx = make_context(random_graph_doc(rng, n_nodes=8, edge_prob=0.4, n_resources=8))
        n = ctx.n_resources
        if n == 0:
            continue
        now = float(rng.uniform(0, 500))
        lam, mu = rng.uniform(1e-4, 0.02, size=n), rng.uniform(1e-4, 0.02, size=n)
        avail = rng.random(n) < 0.5
        overlay = AdaptionOverlay()
        for _ in range(int(rng.integers(0, 12))):
            overlay.add(str(rng.choice(ctx.res_ids)), now + float(rng.uniform(0, 300)),
                        float(rng.uniform(0, 0.6)), str(rng.choice(["me", "a1", "a2"])))
        view = PlanningView(ctx, now, avail, CtmcParams(1.0, 1.0), overlay=overlay, agent_id="me",
                            rates=AvailabilityRates(lam, mu))
        beliefs = [ResourceBelief(rid, A if avail[i] else O, now, CtmcParams(float(lam[i]), float(mu[i])))
                   for i, rid in enumerate(ctx.res_ids)]

        arrivals = now + rng.uniform(0, 400, size=n)
        vec = view.availability(arrivals)
        subset = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        at = now + float(rng.uniform(0, 400))
        sub = view.availability(at, subset)
        for i in range(n):
            ref = availability_probability(beliefs[i], float(arrivals[i]), overlay, exclude_owner="me")
            assert vec[i] == pytest.approx(ref, rel=1e-12, abs=1e-15)
        for k, i in enumerate(subset):
            ref = availability_probability(beliefs[i], at, overlay, exclude_owner="me")
            assert sub[k] == pytest.approx(ref, rel=1e-12, abs=1e-15)
        checked += n
    assert checked > 100


def _oracle_view_availability(view, lam, mu, at, idx=None):
    """The view's prediction rebuilt from the oracle formula, with the overlay subtracted in the view's order."""
    sel = slice(None) if idx is None else idx
    p = availability_after_rates(lam[sel], mu[sel], at - view.now, view.avail[sel])
    if view.overlay:
        at = np.broadcast_to(at, p.shape)
        ids = np.asarray(view.ctx.res_ids)[sel]
        for k, rid in enumerate(ids.tolist()):
            p[k] -= view.overlay.pending_subtraction(rid, float(at[k]), view.agent_id)
        np.clip(p, 0.0, 1.0, out=p)
    return p


def test_rates_encoding_is_bit_identical_to_the_formula():
    """One per-run encoding, read by every prediction: it must equal the formula bit for bit for every
    resource and index subsets, one time or one time per resource, with and without overlay entries."""
    from parksearch.planners import PlanningView

    from conftest import make_context, random_graph_doc

    rng = np.random.default_rng(1414)
    seen = {"overlay": 0, "no overlay": 0, "subset": 0, "scalar time": 0, "per-resource time": 0}
    for _ in range(60):
        graph, ctx = make_context(random_graph_doc(rng, n_nodes=8, edge_prob=0.4, n_resources=12))
        n = ctx.n_resources
        if n == 0:
            continue
        lam, mu = rng.uniform(1e-5, 0.05, size=n), rng.uniform(1e-5, 0.05, size=n)
        rates = AvailabilityRates(lam, mu)
        now = float(rng.uniform(0, 500))
        overlay = AdaptionOverlay()
        for _ in range(int(rng.integers(0, 3)) * int(rng.integers(0, 8))):
            overlay.add(str(rng.choice(ctx.res_ids)), now + float(rng.uniform(0, 300)),
                        float(rng.uniform(0, 0.6)), str(rng.choice(["me", "a1", "a2"])))
        seen["overlay" if overlay else "no overlay"] += 1
        avail = rng.random(n) < 0.5
        view = PlanningView(ctx, now, avail, CtmcParams(1.0, 1.0), overlay=overlay, agent_id="me", rates=rates)
        subset = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        for idx in (None, subset, subset.tolist()):
            size = n if idx is None else len(idx)
            seen["subset"] += idx is not None
            for at in (now + float(rng.uniform(0, 900)), now + rng.uniform(0, 900, size=size)):
                seen["scalar time" if np.ndim(at) == 0 else "per-resource time"] += 1
                sel = slice(None) if idx is None else idx
                assert np.array_equal(rates.after(at - now, avail[sel], idx),
                                      availability_after_rates(lam[sel], mu[sel], at - now, avail[sel]))
                assert np.array_equal(view.availability(at, idx), _oracle_view_availability(view, lam, mu, at, idx))
        for frm in (True, False):  # one anchor state for every resource
            assert np.array_equal(rates.after(120.0, frm), availability_after_rates(lam, mu, 120.0, frm))
        t_tr = rng.uniform(30.0, 300.0, size=n)
        assert np.array_equal(expected_wait_times_rates(rates, t_tr),
                              t_tr / availability_after_rates(lam, mu, t_tr, False))
    assert min(seen.values()) > 0, seen

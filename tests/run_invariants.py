"""End-of-run invariants of one simulation, for tests to check after a run.

``check_end_of_run(records, log, fleet)`` takes a run's records, its ``collect_events`` log and the
``fleet.Fleet`` the run built, and asserts that:

- no spot is parked on twice, in the records or in the log's successful claims, and the two agree;
- the fleet ends with no reservation and an empty adaption overlay;
- event times never decrease.

It does not assert ``parking_s >= 0``: a spot closer to the destination than any node can still give a
negative search time.
"""


def check_end_of_run(records, log, fleet) -> None:
    parked = {r.agent_id: r.parked_resource for r in records if r.status == "parked"}
    assert len(set(parked.values())) == len(parked), f"a spot was parked on twice: {sorted(parked.values())}"
    claimed = [(ev.agent, ev.resource) for ev in log if ev.kind == "agent_claim" and ev.detail == "success"]
    assert sorted(claimed) == sorted(parked.items())
    assert len(fleet.reservations) == 0, f"{len(fleet.reservations)} reservations left"
    assert len(fleet.overlay) == 0, f"{len(fleet.overlay)} overlay entries left"
    times = [ev.time for ev in log]
    assert all(a <= b for a, b in zip(times, times[1:])), "event time went backwards"

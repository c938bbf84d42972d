"""Storage-degrade faults on a DPP chaos session.

A session reads its filesystem at no granted rate, so
``DEGRADE_STORAGE`` and ``RESTORE_STORAGE`` are skipped with a note;
storage degradation is a fleet-plane fault.
"""

from repro.chaos import ChaosRunner, FaultEvent, FaultKind, FaultSchedule
from repro.dpp import DppSession

from ..dpp.conftest import make_spec


def session_over(filesystem, published):
    _, schema, footers, _ = published
    spec = make_spec(schema, split_stripes=1)
    # One worker, so the 8 splits take enough rounds for both faults.
    return DppSession(spec, filesystem, schema, footers, n_workers=1, n_clients=1)


def run(filesystem, published, events):
    session = session_over(filesystem, published)
    report = ChaosRunner(session, FaultSchedule(events)).run()
    assert report.ok, report.describe()
    return report


def test_a_filesystem_without_a_rate_skips_storage_faults(published):
    report = run(
        published[0],
        published,
        [
            FaultEvent(1, FaultKind.DEGRADE_STORAGE, magnitude=0.5),
            FaultEvent(2, FaultKind.RESTORE_STORAGE),
        ],
    )
    assert report.faults_injected == [
        "round 1: degrade_storage (x0.5) [skipped: filesystem is not rate-limited]",
        "round 2: restore_storage (x1) [skipped: filesystem is not rate-limited]",
    ]
    assert not hasattr(published[0], "set_rate")

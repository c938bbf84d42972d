"""Storage-degrade faults on a DPP chaos session.

``DEGRADE_STORAGE`` throttles the session's filesystem to a fraction
of the rate it had when the first storage fault landed;
``RESTORE_STORAGE`` puts that nominal rate back, and so does the end of
the run, so a degrade whose restore never fired cannot leak into the
filesystem's next user.  A filesystem without a rate skips both.
"""

from repro.chaos import ChaosRunner, FaultEvent, FaultKind, FaultSchedule
from repro.dpp import DppSession
from repro.fleet import ThrottledFilesystem

from ..dpp.conftest import make_spec

NOMINAL = 4.0e6  # bytes/s


class RecordingFilesystem(ThrottledFilesystem):
    """A rate-limited view that remembers every rate it was given."""

    def __init__(self, base):
        super().__init__(base, rate_bytes_per_s=NOMINAL)
        self.rates = []

    def set_rate(self, rate_bytes_per_s):
        self.rates.append(rate_bytes_per_s)
        super().set_rate(rate_bytes_per_s)


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


def test_degrade_then_restore_sets_the_rate_and_puts_it_back(published):
    base = published[0]
    undisturbed = RecordingFilesystem(base)
    run(undisturbed, published, [])
    throttled = RecordingFilesystem(base)
    report = run(
        throttled,
        published,
        [
            FaultEvent(1, FaultKind.DEGRADE_STORAGE, magnitude=0.25),
            FaultEvent(3, FaultKind.RESTORE_STORAGE),
        ],
    )
    assert report.rounds > 3
    assert report.faults_injected == [
        "round 1: degrade_storage (x0.25)",
        "round 3: restore_storage (x1)",
    ]
    # Degrade, restore, then the end-of-run restore.
    assert throttled.rates == [NOMINAL * 0.25, NOMINAL, NOMINAL]
    assert throttled.rate_bytes_per_s == NOMINAL
    # The same bytes were read, but the degraded rounds charged more
    # device time for them.
    assert throttled.bytes_read == undisturbed.bytes_read
    assert throttled.io_seconds > undisturbed.io_seconds
    assert undisturbed.rates == []


def test_a_restore_scheduled_after_completion_still_leaves_the_nominal_rate(
    published,
):
    filesystem = RecordingFilesystem(published[0])
    report = run(
        filesystem,
        published,
        [
            FaultEvent(1, FaultKind.DEGRADE_STORAGE, magnitude=0.5),
            FaultEvent(10_000, FaultKind.RESTORE_STORAGE),
        ],
    )
    assert report.rounds < 10_000
    assert report.faults_injected == ["round 1: degrade_storage (x0.5)"]
    assert filesystem.rates == [NOMINAL * 0.5, NOMINAL]
    assert filesystem.rate_bytes_per_s == NOMINAL


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

"""A worker keeps one ``DwrfReader`` per file, however many splits of
the file it extracts: the reader holds the per-stripe read plans, so a
reader per split would plan every stripe again.  A count, not a timing.
"""

from repro.dpp import DppSession
from repro.dpp import worker as worker_module
from repro.dwrf import DwrfReader

from .conftest import make_spec


def test_a_worker_builds_one_reader_per_file(published, monkeypatch):
    filesystem, schema, footers, _ = published
    built = []

    class CountingReader(DwrfReader):
        def __init__(self, footer, *args, **kwargs):
            built.append(footer)
            super().__init__(footer, *args, **kwargs)

    monkeypatch.setattr(worker_module, "DwrfReader", CountingReader)
    session = DppSession(make_spec(schema), filesystem, schema, footers, n_workers=1)
    (worker,) = session.workers
    per_file: dict[str, int] = {}
    while (split := session.master.request_split(worker.worker_id)) is not None:
        assert list(worker.extract_batches(split))
        session.master.complete_split(worker.worker_id, split.split_id)
        per_file[split.file_name] = per_file.get(split.file_name, 0) + 1
    assert min(per_file.values()) >= 3  # three splits or more of each file
    assert len(built) == len(per_file) == 2
    assert {id(footer) for footer in built} == {id(f) for f in footers.values()}

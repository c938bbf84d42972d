"""Span-recording stand-ins the traced run passes where the program takes
a collaborator as an argument: a filesystem proxy (``DppSession`` and
``DppWorker`` accept any object with the Tectonic read surface) and a
``DppWorker`` subclass for ``ServingPlane``'s ``worker_factory``.
Nothing on a ``repro`` object is replaced.
"""

from __future__ import annotations

from repro.dpp import DppWorker


class TimedFilesystem:
    """The Tectonic read surface with a ``tectonic.fetch`` span per read."""

    def __init__(self, filesystem, rec, job: str = "") -> None:
        self._filesystem = filesystem
        self._rec = rec
        self._job = job

    def read(self, name: str, offset: int, length: int) -> bytes:
        with self._rec.span("tectonic.fetch", self._job):
            return self._filesystem.read(name, offset, length)

    def fetcher(self, name: str):
        def fetch(offset: int, length: int) -> bytes:
            return self.read(name, offset, length)

        return fetch

    def file(self, name: str):
        return self._filesystem.file(name)


def timed_batches(batches, rec, job: str = ""):
    """Step an ``extract_batches`` generator, each step inside a span.

    The span is named for its self time: what the fetches nested in it
    do not cover is decoding (``dpp.extract_s`` is the two together).
    """
    while True:
        with rec.span("dwrf.decode", job):
            batch = next(batches, None)
        if batch is None:
            return
        yield batch


class TimedWorker(DppWorker):
    """A ``DppWorker`` whose public phase methods record spans."""

    def __init__(self, rec, worker_id, master, filesystem, schema, footers, config):
        super().__init__(
            worker_id,
            master,
            TimedFilesystem(filesystem, rec, worker_id),
            schema,
            footers,
            config=config,
        )
        self._rec = rec

    def extract_batches(self, split):
        return timed_batches(super().extract_batches(split), self._rec, self.worker_id)

    def transform_batch(self, batch):
        with self._rec.span("transforms.execute", self.worker_id):
            return super().transform_batch(batch)

    def tensorize(self, batch, split_id, sequence):
        with self._rec.span("dpp.tensorize", self.worker_id):
            return super().tensorize(batch, split_id, sequence)

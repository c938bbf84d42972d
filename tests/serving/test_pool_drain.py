"""The serving pool's scale-down arm, driven directly.

``WorkerPool.drain_one`` takes the youngest active member (LIFO,
matching launch order).  An idle member — parked waiting for input — is
cancelled and retired on the spot; a busy one is only marked
``draining`` and retires itself once its current item is out.  Busy
includes a member parked on a full *output* queue, which is why the
autoscaler's end-to-end runs never reach this arm: a backed-up pipeline
reads as fully utilized.
"""

from types import SimpleNamespace

from repro.serving.plane import PlaneConfig, ServingPlane, TransformTask

HORIZON_S = 10.0


class StubWorker:
    """What the transform loop touches on a worker, at zero cost."""

    def __init__(self):
        self.stats = SimpleNamespace(usage=SimpleNamespace(cpu_cycles=0.0))

    def transform_batch(self, batch):
        pass

    def tensorize(self, batch, split_id, sequence):
        return (split_id, sequence)


def settle(plane):
    """Run the kernel until every task has parked or finished: a far
    sentinel event fires last and keeps parked tasks from reading as a
    deadlock."""
    horizon = plane.clock.now + HORIZON_S
    plane.clock.schedule_at(horizon, lambda: None)
    plane.kernel.run(until=lambda: plane.clock.now >= horizon)


def test_drain_one_retires_idle_members_lifo_and_only_marks_a_busy_one():
    plane = ServingPlane(
        PlaneConfig(ready_queue_bound=1),
        master=SimpleNamespace(register_worker=lambda worker_id: None),
        worker_factory=lambda name: StubWorker(),
    )
    pool = plane.transform_pool
    oldest, middle, youngest = (pool.launch() for _ in range(3))
    # A full ready queue plus one transform item: the oldest member
    # (first to park on the transform queue) takes the item and then
    # blocks on the ready queue — busy — while the other two sit idle.
    assert plane.ready_queue.try_put("backlog")
    item = TransformTask("e0-s0-b0", "e0-s0", 0, 0, 0, batch=None)
    assert plane.transform_queue.try_put(item)
    settle(plane)
    assert oldest.busy and not plane.transform_queue.depth
    assert not middle.busy and not youngest.busy
    assert not any(m.task.finished for m in (oldest, middle, youngest))

    pool.drain_one()
    assert youngest.draining and youngest.retired and youngest.task.cancelled
    assert pool.active == [oldest, middle]

    pool.drain_one()
    assert middle.retired and middle.task.cancelled
    assert pool.active == [oldest]

    pool.drain_one()
    assert oldest.draining and not oldest.retired
    assert not oldest.task.cancelled
    assert pool.size == 0
    assert pool.stats.drains == 3

    # Freeing the ready queue lets the busy member finish its item and
    # retire itself instead of taking more work.
    async def take_one():
        await plane.ready_queue.get()

    plane.kernel.spawn(take_one(), "consumer")
    settle(plane)
    assert oldest.retired and not oldest.busy
    assert oldest.task.finished and not oldest.task.cancelled
    assert plane.ready_queue.depth == 1  # the item it was holding
    assert pool.stats.drains == 3
    pool.drain_one()  # nothing active: a no-op
    assert pool.stats.drains == 3

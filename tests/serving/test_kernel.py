"""The cooperative kernel: FIFO scheduling, traps, queues, deadlock."""

import pytest

from repro.serving import Kernel, KernelError, Queue


class TestScheduling:
    def test_runs_to_completion_and_captures_results(self):
        kernel = Kernel()

        async def work(n):
            return n * 2

        tasks = [kernel.spawn(work(n), f"w{n}") for n in range(3)]
        kernel.run()
        assert [t.result for t in tasks] == [0, 2, 4]
        assert all(task.finished for task in kernel.tasks)

    def test_spawn_order_is_execution_order(self):
        # FIFO at every step: first steps in spawn order, resumed steps
        # in wake order — the determinism the plane relies on.
        kernel = Kernel()
        order = []

        async def step(tag):
            order.append(("before", tag))
            await kernel.sleep(1.0)
            order.append(("after", tag))

        for tag in range(3):
            kernel.spawn(step(tag), f"t{tag}")
        kernel.run()
        assert order == [
            ("before", 0), ("before", 1), ("before", 2),
            ("after", 0), ("after", 1), ("after", 2),
        ]

    def test_sleep_advances_virtual_time(self):
        kernel = Kernel()
        woke_at = []

        async def sleeper():
            await kernel.sleep(2.5)
            woke_at.append(kernel.clock.now)
            await kernel.sleep(0.5)
            woke_at.append(kernel.clock.now)

        kernel.spawn(sleeper(), "s")
        kernel.run()
        assert woke_at == [2.5, 3.0]

    def test_until_predicate_stops_the_loop(self):
        kernel = Kernel()
        state = {"ticks": 0}

        async def ticker():
            while True:
                await kernel.sleep(1.0)
                state["ticks"] += 1

        kernel.spawn(ticker(), "ticker")
        kernel.run(until=lambda: state["ticks"] >= 5)
        assert state["ticks"] == 5
        kernel.cancel_all()
        assert all(task.finished for task in kernel.tasks)

    def test_cancel_runs_finally_blocks(self):
        kernel = Kernel()
        cleaned = []

        async def guarded():
            try:
                await kernel.sleep(100.0)
            finally:
                cleaned.append(True)

        async def finisher():
            return "done"

        task = kernel.spawn(guarded(), "guarded")
        probe = kernel.spawn(finisher(), "finisher")
        kernel.run(until=lambda: probe.finished)
        assert not task.finished  # parked on the long sleep
        task.cancel()
        assert cleaned == [True]
        assert task.finished and task.cancelled
        task.cancel()  # idempotent on finished tasks

    def test_deadlock_is_loud_not_a_hang(self):
        kernel = Kernel()
        queue = Queue(kernel, 1, "q")

        async def starving():
            await queue.get()

        kernel.spawn(starving(), "starving")
        with pytest.raises(KernelError, match="deadlock.*starving"):
            kernel.run()


class TestQueue:
    def test_fifo_order_end_to_end(self):
        kernel = Kernel()
        queue = Queue(kernel, 8, "q")
        got = []

        async def producer():
            for item in range(5):
                await queue.put(item)

        async def consumer():
            for _ in range(5):
                got.append(await queue.get())

        kernel.spawn(producer(), "p")
        kernel.spawn(consumer(), "c")
        kernel.run()
        assert got == [0, 1, 2, 3, 4]
        assert queue.total_enqueued == 5
        assert queue.depth == 0

    def test_put_backpressures_at_capacity(self):
        kernel = Kernel()
        queue = Queue(kernel, 2, "q")
        put_times = []

        async def producer():
            for item in range(4):
                await queue.put(item)
                put_times.append(kernel.clock.now)

        async def slow_consumer():
            for _ in range(4):
                await kernel.sleep(1.0)
                await queue.get()

        kernel.spawn(producer(), "p")
        kernel.spawn(slow_consumer(), "c")
        kernel.run()
        # Two slots fill instantly; the rest wait for a consumer get.
        assert put_times[0] == 0.0 and put_times[1] == 0.0
        assert put_times[2] >= 1.0 and put_times[3] >= 2.0
        assert queue.peak_depth == 2

    def test_try_put_sheds_instead_of_parking(self):
        queue = Queue(Kernel(), 1, "q")
        assert queue.try_put("a") is True
        assert queue.depth == queue.capacity
        assert queue.try_put("b") is False
        assert queue.try_put("c") is False
        assert queue.shed == 2
        assert queue.depth == 1 and queue.total_enqueued == 1

    def test_parked_getters_wake_in_fifo_order(self):
        kernel = Kernel()
        queue = Queue(kernel, 4, "q")
        served = []

        async def consumer(tag):
            served.append((tag, await queue.get()))

        for tag in range(3):
            kernel.spawn(consumer(tag), f"c{tag}")

        async def producer():
            await kernel.sleep(1.0)
            for item in range(3):
                await queue.put(item)

        kernel.spawn(producer(), "p")
        kernel.run()
        assert served == [(0, 0), (1, 1), (2, 2)]

    def test_wakeups_skip_cancelled_waiters(self):
        kernel = Kernel()
        queue = Queue(kernel, 4, "q")
        served = []

        async def consumer(tag):
            served.append((tag, await queue.get()))

        doomed = kernel.spawn(consumer("doomed"), "doomed")
        kernel.spawn(consumer("live"), "live")

        async def producer():
            await kernel.sleep(1.0)
            doomed.cancel()
            await queue.put("item")

        kernel.spawn(producer(), "p")
        kernel.run()
        assert served == [("live", "item")]

    def test_capacity_must_be_positive(self):
        with pytest.raises(KernelError, match="capacity"):
            Queue(Kernel(), 0, "bad")

    def test_pipeline_is_deterministic(self):
        # The same two-stage producer/consumer mesh replays an
        # identical event log across kernels.
        def run_once():
            kernel = Kernel()
            first = Queue(kernel, 2, "first")
            second = Queue(kernel, 2, "second")
            log = []

            async def source():
                for item in range(8):
                    await kernel.sleep(0.25)
                    await first.put(item)

            async def middle(tag):
                while True:
                    item = await first.get()
                    await kernel.sleep(0.4)
                    await second.put((tag, item))

            async def sink():
                for _ in range(8):
                    log.append((kernel.clock.now, await second.get()))

            kernel.spawn(source(), "source")
            kernel.spawn(middle("m0"), "m0")
            kernel.spawn(middle("m1"), "m1")
            drain = kernel.spawn(sink(), "sink")
            kernel.run(until=lambda: drain.finished)
            kernel.cancel_all()
            return log

        assert run_once() == run_once()

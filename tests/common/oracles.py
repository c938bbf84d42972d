"""Reference implementations the common kernels are tested against.

``OracleSimClock`` is ``repro.common.simclock.SimClock`` written the
plainest way: every pending occurrence — a one-shot event or the next
occurrence of a recurrence — sits in one list, and each firing sorts
that list by ``(time, seq)`` and takes the head.  No heap, no lazy
deletion or compaction, no periodic side list.  What it must share with
the production clock is the contract: FIFO at equal times by one
sequence counter, which a recurrence consumes whenever it
(re)schedules; times as the exact sums
``now + delay`` and ``now + interval``; an occurrence consumed before
its callback runs, so a raising callback is still counted as fired and
a raising recurrence stops; and where ``step``, ``run``, ``run_until``
and ``run_while`` each stop.

The second half keeps the hand-written JSON bodies of the scenarios and
reports that now serialize through the record codec.
"""

_INF = float("inf")


class _Entry:
    """One pending occurrence; ``interval`` is None for a one-shot event."""

    def __init__(self, time, seq, callback, interval=None, until=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.interval = interval
        self.until = until
        self.pending = False
        self.stopped = False


class OracleEventHandle:
    def __init__(self, clock, entry):
        self._clock = clock
        self._entry = entry

    def cancel(self):
        if self._entry.pending:
            self._clock._remove(self._entry)

    @property
    def time(self):
        return self._entry.time


class OraclePeriodicHandle:
    def __init__(self, clock, entry):
        self._clock = clock
        self._entry = entry

    def cancel(self):
        self._entry.stopped = True
        if self._entry.pending:
            self._clock._remove(self._entry)

    @property
    def active(self):
        return not self._entry.stopped and self._entry.pending


class OracleSimClock:
    """Discrete-event clock: one list, sorted at every firing."""

    def __init__(self, start=0.0):
        self.now = start
        self.fired = 0
        self._seq = 0
        self._entries = []

    def _next_seq(self):
        seq = self._seq
        self._seq += 1
        return seq

    def _add(self, entry):
        entry.pending = True
        self._entries.append(entry)

    def _remove(self, entry):
        entry.pending = False
        self._entries.remove(entry)

    @property
    def pending(self):
        return len(self._entries)

    def schedule(self, delay, callback):
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        entry = _Entry(self.now + delay, self._next_seq(), callback)
        self._add(entry)
        return OracleEventHandle(self, entry)

    def schedule_at(self, when, callback):
        return self.schedule(when - self.now, callback)

    def every(self, interval, callback, *, until=None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        entry = _Entry(self.now + interval, 0, callback, interval, until)
        if until is None or entry.time <= until:
            entry.seq = self._next_seq()
            self._add(entry)
        return OraclePeriodicHandle(self, entry)

    def _drain(self, deadline, condition, max_events):
        fired = 0
        while fired < max_events and self._entries:
            entry = sorted(self._entries, key=lambda e: (e.time, e.seq))[0]
            if entry.time > deadline:
                break
            if condition is not None and not condition():
                break
            self._remove(entry)
            self.fired += 1
            fired += 1
            self.now = entry.time
            entry.callback()
            if entry.interval is None or entry.stopped:
                continue
            next_time = self.now + entry.interval
            if entry.until is not None and next_time > entry.until:
                continue
            entry.time = next_time
            entry.seq = self._next_seq()
            self._add(entry)
        return fired

    def step(self):
        return self._drain(_INF, None, 1) == 1

    def run_until(self, deadline):
        self._drain(deadline, None, 0x7FFFFFFFFFFFFFFF)
        self.now = max(self.now, deadline)

    def run_while(self, condition, max_events=1_000_000):
        return self._drain(_INF, condition, max_events)

    def run(self, max_events=1_000_000):
        fired = self._drain(_INF, None, max_events)
        if fired >= max_events and self.pending:
            raise RuntimeError(f"simulation exceeded {max_events} events")
        return fired


# -- hand-written record bodies ------------------------------------------------
#
# Before the record codec (``record_row`` / ``record_from_row`` in
# ``repro.common.serialization``) every scenario and report spelled out
# its own JSON body: a field list per direction, cast tables, restated
# defaults.  These are those bodies, kept verbatim as functions of the
# record (``params``/``payload``/``to_row`` side) or of the class and the
# row (``from_*`` side).  They are the reference the codec is held to in
# ``tests/common/test_record_codec.py``.

from dataclasses import asdict, fields  # noqa: E402

from repro.chaos.invariants import Violation  # noqa: E402
from repro.chaos.report import ChaosReport, DeliveryRecord  # noqa: E402
from repro.cluster.job import JobKind  # noqa: E402
from repro.common.serialization import (  # noqa: E402
    ReportBase,
    require_keys,
    revive_float,
)
from repro.dpp.simulation import SimTickSample, SimulationResult  # noqa: E402
from repro.experiments.report import FailureReport, ScenarioResult  # noqa: E402
from repro.experiments.runner import ExperimentEntry, ExperimentReport  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    ChaosSessionScenario,
    DppTimelineScenario,
    FleetRegionScenario,
    config_from_spec,
    config_to_spec,
    fault_events_from_rows,
    fault_events_to_rows,
    mix_from_overrides,
    mix_to_overrides,
)
from repro.fleet.jobs import FleetJobSpec  # noqa: E402
from repro.fleet.report import FleetReport, FleetSample, JobOutcome  # noqa: E402
from repro.serving.report import PoolStats, QueueStats, ServingReport  # noqa: E402
from repro.serving.scenario import ServingScenario  # noqa: E402
from repro.trainer.stalls import StallReport  # noqa: E402
from repro.transforms.base import OpClass  # noqa: E402
from repro.transforms.cost import CostReport  # noqa: E402
from repro.workloads.models import model_by_name  # noqa: E402


def revive_floats(row, float_fields):
    """Copy *row* with the named fields decoded via ``revive_float``;
    fields absent from *row* stay absent."""
    revived = dict(row)
    for name in float_fields:
        if name in revived:
            revived[name] = revive_float(revived[name])
    return revived

# experiments/scenarios.py


def fleet_scenario_params(self):
    return {
        "name": self.name,
        "trace_seed": self.trace_seed,
        "duration_s": self.duration_s,
        "horizon_s": self.horizon_s,
        "mix": mix_to_overrides(self.mix),
        "config": config_to_spec(self.config),
        "faults": fault_events_to_rows(self.faults, "at_s"),
    }


def fleet_scenario_from_params(params):
    cls = FleetRegionScenario
    require_keys(
        params,
        required=("name", "trace_seed", "duration_s"),
        optional=("horizon_s", "mix", "config", "faults"),
        context="fleet scenario",
    )
    horizon = params.get("horizon_s")
    return cls(
        name=params["name"],
        trace_seed=int(params["trace_seed"]),
        mix=mix_from_overrides(params.get("mix", {})),
        config=config_from_spec(params.get("config", {})),
        duration_s=revive_float(params["duration_s"]),
        horizon_s=None if horizon is None else float(horizon),
        faults=fault_events_from_rows(params.get("faults", []), "at_s"),
    )


def chaos_scenario_params(self):
    return {
        "name": self.name,
        "seed": self.seed,
        "n_workers": self.n_workers,
        "n_clients": self.n_clients,
        "n_partitions": self.n_partitions,
        "rows_per_partition": self.rows_per_partition,
        "batch_size": self.batch_size,
        "row_sample_rate": self.row_sample_rate,
        "table_seed": self.table_seed,
        "faults": fault_events_to_rows(self.faults, "round"),
        "seeded_faults": self.seeded_faults,
        "seeded_max_round": self.seeded_max_round,
        "client_batches_per_round": self.client_batches_per_round,
    }


def chaos_scenario_from_params(params):
    cls = ChaosSessionScenario
    require_keys(
        params,
        required=("name",),
        optional=(
            "seed",
            "n_workers",
            "n_clients",
            "n_partitions",
            "rows_per_partition",
            "batch_size",
            "row_sample_rate",
            "table_seed",
            "faults",
            "seeded_faults",
            "seeded_max_round",
            "client_batches_per_round",
        ),
        context="chaos scenario",
    )
    throttle = params.get("client_batches_per_round")
    return cls(
        name=params["name"],
        seed=int(params.get("seed", 0)),
        n_workers=int(params.get("n_workers", 3)),
        n_clients=int(params.get("n_clients", 2)),
        n_partitions=int(params.get("n_partitions", 2)),
        rows_per_partition=int(params.get("rows_per_partition", 256)),
        batch_size=int(params.get("batch_size", 64)),
        row_sample_rate=float(params.get("row_sample_rate", 1.0)),
        table_seed=int(params.get("table_seed", 7)),
        faults=fault_events_from_rows(params.get("faults", []), "round"),
        seeded_faults=int(params.get("seeded_faults", 0)),
        seeded_max_round=int(params.get("seeded_max_round", 8)),
        client_batches_per_round=(
            None if throttle is None else int(throttle)
        ),
    )


def dpp_scenario_params(self):
    return {
        "name": self.name,
        "seed": self.seed,
        "worker_batches_per_s": self.worker_batches_per_s,
        "trainer_batches_per_s": self.trainer_batches_per_s,
        "initial_workers": self.initial_workers,
        "duration_s": self.duration_s,
        "worker_spinup_s": self.worker_spinup_s,
        "controller_period_s": self.controller_period_s,
        "tick_s": self.tick_s,
        "max_workers": self.max_workers,
        "worker_losses": [
            [when, count] for when, count in self.worker_losses
        ],
    }


def dpp_scenario_from_params(params):
    cls = DppTimelineScenario
    require_keys(
        params,
        required=("name",),
        optional=(
            "seed",
            "worker_batches_per_s",
            "trainer_batches_per_s",
            "initial_workers",
            "duration_s",
            "worker_spinup_s",
            "controller_period_s",
            "tick_s",
            "max_workers",
            "worker_losses",
        ),
        context="dpp scenario",
    )
    return cls(
        name=params["name"],
        seed=int(params.get("seed", 0)),
        worker_batches_per_s=float(params.get("worker_batches_per_s", 10.0)),
        trainer_batches_per_s=float(
            params.get("trainer_batches_per_s", 60.0)
        ),
        initial_workers=int(params.get("initial_workers", 2)),
        duration_s=float(params.get("duration_s", 1_800.0)),
        worker_spinup_s=float(params.get("worker_spinup_s", 30.0)),
        controller_period_s=float(params.get("controller_period_s", 10.0)),
        tick_s=float(params.get("tick_s", 1.0)),
        max_workers=int(params.get("max_workers", 64)),
        worker_losses=tuple(
            (float(when), int(count))
            for when, count in params.get("worker_losses", [])
        ),
    )


# serving/scenario.py

_SERVING_PLANE_FIELDS = (
    "arrival_mix",
    "rate_per_s",
    "n_requests",
    "fetch_policy",
    "max_retries",
    "retry_backoff_s",
    "backoff_multiplier",
    "fetch_queue_bound",
    "extract_queue_bound",
    "transform_queue_bound",
    "ready_queue_bound",
    "extract_workers",
    "transform_workers",
    "autoscale",
    "max_pool_workers",
    "control_period_s",
    "cycles_per_s",
)

_SERVING_FLOAT_FIELDS = (
    "rate_per_s",
    "retry_backoff_s",
    "backoff_multiplier",
    "control_period_s",
    "cycles_per_s",
)

_SERVING_INT_FIELDS = (
    "n_requests",
    "max_retries",
    "fetch_queue_bound",
    "extract_queue_bound",
    "transform_queue_bound",
    "ready_queue_bound",
    "extract_workers",
    "transform_workers",
    "max_pool_workers",
    "n_partitions",
    "rows_per_partition",
    "batch_size",
    "table_seed",
)


def serving_scenario_params(self):
    out: dict = {"name": self.name, "seed": self.seed}
    for name in _SERVING_PLANE_FIELDS:
        out[name] = getattr(self, name)
    for name in ("n_partitions", "rows_per_partition", "batch_size",
                 "table_seed"):
        out[name] = getattr(self, name)
    return out


def serving_scenario_from_params(params):
    cls = ServingScenario
    require_keys(
        params,
        required=("name",),
        optional=(
            "seed",
            "n_partitions",
            "rows_per_partition",
            "batch_size",
            "table_seed",
            *_SERVING_PLANE_FIELDS,
        ),
        context="serving scenario",
    )
    kwargs: dict = {"name": params["name"], "seed": int(params.get("seed", 0))}
    defaults = cls(name="defaults")
    for name in _SERVING_FLOAT_FIELDS:
        kwargs[name] = float(params.get(name, getattr(defaults, name)))
    for name in _SERVING_INT_FIELDS:
        kwargs[name] = int(params.get(name, getattr(defaults, name)))
    for name in ("arrival_mix", "fetch_policy"):
        kwargs[name] = str(params.get(name, getattr(defaults, name)))
    kwargs["autoscale"] = bool(params.get("autoscale", defaults.autoscale))
    return cls(**kwargs)


# serving/report.py

_SERVING_REPORT_FLOAT_FIELDS = (
    "duration_s",
    "requests_per_s",
    "fetch_p50_ms",
    "fetch_p99_ms",
    "fetch_p999_ms",
    "fetch_mean_ms",
)
_QUEUE_KEYS = ("name", "peak_depth", "mean_depth", "total_enqueued")
_POOL_KEYS = ("role", "initial", "peak", "final", "launches", "drains")


def queue_stats_to_row(self):
    return {
        "name": self.name,
        "peak_depth": self.peak_depth,
        "mean_depth": self.mean_depth,
        "total_enqueued": self.total_enqueued,
    }


def queue_stats_from_row(row):
    cls = QueueStats
    require_keys(row, required=_QUEUE_KEYS, context="queue stats")
    return cls(
        name=row["name"],
        peak_depth=int(row["peak_depth"]),
        mean_depth=float(row["mean_depth"]),
        total_enqueued=int(row["total_enqueued"]),
    )


def pool_stats_to_row(self):
    return {
        "role": self.role,
        "initial": self.initial,
        "peak": self.peak,
        "final": self.final,
        "launches": self.launches,
        "drains": self.drains,
    }


def pool_stats_from_row(row):
    cls = PoolStats
    require_keys(row, required=_POOL_KEYS, context="pool stats")
    return cls(
        role=row["role"],
        initial=int(row["initial"]),
        peak=int(row["peak"]),
        final=int(row["final"]),
        launches=int(row["launches"]),
        drains=int(row["drains"]),
    )


def serving_report_payload(self):
    return {
        "arrivals": self.arrivals,
        "served": self.served,
        "shed": self.shed,
        "retries": self.retries,
        "epochs": self.epochs,
        "batches_produced": self.batches_produced,
        "duration_s": self.duration_s,
        "requests_per_s": self.requests_per_s,
        "fetch_p50_ms": self.fetch_p50_ms,
        "fetch_p99_ms": self.fetch_p99_ms,
        "fetch_p999_ms": self.fetch_p999_ms,
        "fetch_mean_ms": self.fetch_mean_ms,
        "queues": [queue_stats_to_row(q) for q in self.queues],
        "pools": [pool_stats_to_row(p) for p in self.pools],
    }


def serving_report_from_payload(payload):
    cls = ServingReport
    require_keys(
        payload,
        required=(
            "arrivals",
            "served",
            "shed",
            "retries",
            "epochs",
            "batches_produced",
            "queues",
            "pools",
            *_SERVING_REPORT_FLOAT_FIELDS,
        ),
        context="serving report",
    )
    revived = revive_floats(payload, _SERVING_REPORT_FLOAT_FIELDS)
    return cls(
        arrivals=int(revived["arrivals"]),
        served=int(revived["served"]),
        shed=int(revived["shed"]),
        retries=int(revived["retries"]),
        epochs=int(revived["epochs"]),
        batches_produced=int(revived["batches_produced"]),
        duration_s=revived["duration_s"],
        requests_per_s=revived["requests_per_s"],
        fetch_p50_ms=revived["fetch_p50_ms"],
        fetch_p99_ms=revived["fetch_p99_ms"],
        fetch_p999_ms=revived["fetch_p999_ms"],
        fetch_mean_ms=revived["fetch_mean_ms"],
        queues=[queue_stats_from_row(row) for row in revived["queues"]],
        pools=[pool_stats_from_row(row) for row in revived["pools"]],
    )


# fleet/report.py

_JOB_OUTCOME_FLOAT_FIELDS = (
    "admitted_s",
    "samples_done",
    "stall_s",
    "worker_seconds",
    "granted_bytes",
)


def job_outcome_to_row(self):
    return {
        "spec": {
            "job_id": self.spec.job_id,
            "model": self.spec.model.name,
            "kind": self.spec.kind.value,
            "arrival_s": self.spec.arrival_s,
            "trainer_nodes": self.spec.trainer_nodes,
            "target_samples": self.spec.target_samples,
        },
        "admitted_s": self.admitted_s,
        "completed_s": self.completed_s,
        "samples_done": self.samples_done,
        "stall_s": self.stall_s,
        "worker_seconds": self.worker_seconds,
        "granted_bytes": self.granted_bytes,
    }


def job_outcome_from_row(row):
    cls = JobOutcome
    require_keys(
        row,
        required=("spec",) + _JOB_OUTCOME_FLOAT_FIELDS + ("completed_s",),
        context="fleet job outcome",
    )
    spec_row = row["spec"]
    require_keys(
        spec_row,
        required=(
            "job_id",
            "model",
            "kind",
            "arrival_s",
            "trainer_nodes",
            "target_samples",
        ),
        context="fleet job spec",
    )
    revived = revive_floats(row, _JOB_OUTCOME_FLOAT_FIELDS)
    completed = row["completed_s"]
    return cls(
        spec=FleetJobSpec(
            job_id=int(spec_row["job_id"]),
            model=model_by_name(spec_row["model"]),
            kind=JobKind(spec_row["kind"]),
            arrival_s=float(spec_row["arrival_s"]),
            trainer_nodes=int(spec_row["trainer_nodes"]),
            target_samples=float(spec_row["target_samples"]),
        ),
        admitted_s=revived["admitted_s"],
        completed_s=None if completed is None else float(completed),
        samples_done=revived["samples_done"],
        stall_s=revived["stall_s"],
        worker_seconds=revived["worker_seconds"],
        granted_bytes=revived["granted_bytes"],
    )


_FLEET_SAMPLE_FLOAT_FIELDS = (
    "time_s",
    "supply_samples_per_s",
    "demand_samples_per_s",
    "granted_bytes_per_s",
    "storage_utilization",
    "power_watts",
)
_FLEET_SAMPLE_INT_FIELDS = (
    "active_jobs",
    "queued_jobs",
    "live_workers",
    "pending_workers",
)


def fleet_sample_to_row(self):
    return {name: getattr(self, name) for name in self.__dataclass_fields__}


def fleet_sample_from_row(row):
    cls = FleetSample
    require_keys(
        row,
        required=_FLEET_SAMPLE_FLOAT_FIELDS + _FLEET_SAMPLE_INT_FIELDS,
        context="fleet tick sample",
    )
    revived = revive_floats(row, _FLEET_SAMPLE_FLOAT_FIELDS)
    for name in _FLEET_SAMPLE_INT_FIELDS:
        revived[name] = int(revived[name])
    return cls(**revived)


def fleet_report_payload(self):
    return {
        "outcomes": [job_outcome_to_row(o) for o in self.outcomes],
        "samples": [fleet_sample_to_row(s) for s in self.samples],
        "storage_bandwidth_bytes_per_s": self.storage_bandwidth_bytes_per_s,
        "makespan_s": self.makespan_s,
        "unadmitted_queue_delays_s": list(self.unadmitted_queue_delays_s),
    }


def fleet_report_from_payload(payload):
    cls = FleetReport
    require_keys(
        payload,
        required=(
            "outcomes",
            "samples",
            "storage_bandwidth_bytes_per_s",
            "makespan_s",
            "unadmitted_queue_delays_s",
        ),
        context="fleet report",
    )
    return cls(
        outcomes=[job_outcome_from_row(row) for row in payload["outcomes"]],
        samples=[fleet_sample_from_row(row) for row in payload["samples"]],
        storage_bandwidth_bytes_per_s=float(
            payload["storage_bandwidth_bytes_per_s"]
        ),
        makespan_s=float(payload["makespan_s"]),
        unadmitted_queue_delays_s=[
            float(delay) for delay in payload["unadmitted_queue_delays_s"]
        ],
    )


# dpp/simulation.py

_SIM_TICK_FLOAT_FIELDS = ("time_s", "buffered_batches", "produced", "consumed")


def sim_tick_to_row(self):
    return {name: getattr(self, name) for name in self.__dataclass_fields__}


def sim_tick_from_row(row):
    cls = SimTickSample
    require_keys(
        row,
        required=_SIM_TICK_FLOAT_FIELDS
        + ("live_workers", "pending_workers", "stalled"),
        context="dpp tick sample",
    )
    revived = revive_floats(row, _SIM_TICK_FLOAT_FIELDS)
    return cls(
        time_s=revived["time_s"],
        live_workers=int(row["live_workers"]),
        pending_workers=int(row["pending_workers"]),
        buffered_batches=revived["buffered_batches"],
        produced=revived["produced"],
        consumed=revived["consumed"],
        stalled=bool(row["stalled"]),
    )


def simulation_result_payload(self):
    return {
        "samples": [sim_tick_to_row(sample) for sample in self.samples],
        "scaling_decisions": list(self.scaling_decisions),
    }


def simulation_result_from_payload(payload):
    cls = SimulationResult
    require_keys(
        payload,
        required=("samples", "scaling_decisions"),
        context="dpp simulation report",
    )
    return cls(
        samples=[sim_tick_from_row(row) for row in payload["samples"]],
        scaling_decisions=list(payload["scaling_decisions"]),
    )


# experiments/report.py

_SCENARIO_RESULT_FLOAT_FIELDS = (
    "makespan_s",
    "aggregate_samples_per_s",
    "mean_slowdown",
    "mean_stall_fraction",
    "p95_queue_delay_s",
    "mean_storage_utilization",
    "peak_storage_utilization",
    "peak_power_watts",
    "wall_s",
)


def scenario_result_to_row(self):
    return asdict(self)


def scenario_result_from_row(row):
    cls = ScenarioResult
    require_keys(
        row,
        required=tuple(
            f.name for f in fields(cls) if f.name not in ("status", "error")
        ),
        optional=("status", "error"),
        context="sweep scenario result",
    )
    return cls(**revive_floats(row, _SCENARIO_RESULT_FLOAT_FIELDS))


def failure_report_payload(self):
    return {"scenario": self.scenario, "error": self.error}


def failure_report_from_payload(payload):
    cls = FailureReport
    require_keys(
        payload,
        required=("scenario", "error"),
        context="failure report",
    )
    return cls(scenario=payload["scenario"], error=payload["error"])


# trainer/stalls.py

_STALL_FLOAT_FIELDS = (
    "gpu_stall_fraction",
    "cpu_utilization",
    "mem_bw_utilization",
    "supplied_samples_per_s",
    "demanded_samples_per_s",
)


def stall_report_payload(self):
    row = {name: getattr(self, name) for name in _STALL_FLOAT_FIELDS}
    row["model"] = self.model.name
    return row


def stall_report_from_payload(payload):
    cls = StallReport
    require_keys(
        payload,
        required=("model",) + _STALL_FLOAT_FIELDS,
        context="stall report",
    )
    revived = revive_floats(payload, _STALL_FLOAT_FIELDS)
    return cls(
        model=model_by_name(payload["model"]),
        **{name: revived[name] for name in _STALL_FLOAT_FIELDS},
    )


# chaos/report.py


def chaos_report_payload(self):
    return {
        "scenario": self.scenario,
        "rounds": self.rounds,
        "allow_replays": self.allow_replays,
        "expected_batches": self.expected_batches,
        "faults_injected": list(self.faults_injected),
        "records": [asdict(record) for record in self.records],
        "violations": [asdict(violation) for violation in self.violations],
    }


def chaos_report_from_payload(payload):
    cls = ChaosReport
    require_keys(
        payload,
        required=(
            "scenario",
            "rounds",
            "allow_replays",
            "expected_batches",
            "faults_injected",
            "records",
            "violations",
        ),
        context="chaos report",
    )
    records = []
    for row in payload["records"]:
        require_keys(
            row,
            required=("round_index", "client_id", "split_id", "sequence", "n_rows"),
            context="chaos delivery record",
        )
        records.append(DeliveryRecord(**row))
    violations = []
    for row in payload["violations"]:
        require_keys(
            row, required=("invariant", "detail"), context="chaos violation"
        )
        violations.append(Violation(**row))
    return cls(
        scenario=payload["scenario"],
        rounds=int(payload["rounds"]),
        allow_replays=bool(payload["allow_replays"]),
        faults_injected=list(payload["faults_injected"]),
        records=records,
        violations=violations,
        expected_batches=int(payload["expected_batches"]),
    )


# transforms/cost.py


def cost_report_payload(self):
    return {
        "cycles": self.cycles,
        "mem_bytes": self.mem_bytes,
        "elements": self.elements,
        "cycles_by_class": {
            cls.value: cycles for cls, cycles in self.cycles_by_class.items()
        },
    }


def cost_report_from_payload(payload):
    cls = CostReport
    require_keys(
        payload,
        required=("cycles", "mem_bytes", "elements", "cycles_by_class"),
        context="cost report",
    )
    by_class = {op_class: 0.0 for op_class in OpClass}
    for name, cycles in payload["cycles_by_class"].items():
        by_class[OpClass(name)] = float(cycles)
    return cls(
        cycles=float(payload["cycles"]),
        mem_bytes=float(payload["mem_bytes"]),
        cycles_by_class=by_class,
        elements=int(payload["elements"]),
    )


# experiments/runner.py


def experiment_entry_to_row(self):
    return {
        "name": self.name,
        "scenario_kind": self.scenario_kind,
        "wall_s": self.wall_s,
        "report": self.report.envelope(),
        "status": self.status,
    }


def experiment_entry_from_row(row):
    cls = ExperimentEntry
    require_keys(
        row,
        required=("name", "scenario_kind", "wall_s", "report"),
        optional=("status",),
        context="experiment entry",
    )
    return cls(
        name=row["name"],
        scenario_kind=row["scenario_kind"],
        wall_s=revive_float(row["wall_s"]),
        report=ReportBase.from_envelope(row["report"]),
        status=row.get("status", "ok"),
    )


def experiment_report_payload(self):
    return {
        "experiment_name": self.experiment_name,
        "jobs": self.jobs,
        "total_wall_s": round(self.total_wall_s, 3),
        "entries": [experiment_entry_to_row(entry) for entry in self.entries],
        "extras": self.extras,
    }


def experiment_report_from_payload(payload):
    cls = ExperimentReport
    require_keys(
        payload,
        required=("entries",),
        optional=("experiment_name", "jobs", "total_wall_s", "extras"),
        context="experiment report",
    )
    return cls(
        entries=[
            experiment_entry_from_row(row) for row in payload["entries"]
        ],
        experiment_name=payload.get("experiment_name", "experiment"),
        jobs=payload.get("jobs", 1),
        total_wall_s=payload.get("total_wall_s", 0.0),
        extras=payload.get("extras", {}),
    )

"""Ablation: auto-scaling versus static provisioning (§3.2.1).

DPP's design goal is "eliminating data stalls with minimal DPP resource
requirements".  This bench runs the timed closed-loop simulation under
four policies and compares stall time against worker-hours spent.
"""

from repro.analysis import render_table
from repro.dpp import AutoscalerConfig, SimulationConfig, TimedDppSimulation

from ._util import save_result

DURATION_S = 1_200.0


def run_policy(initial_workers, autoscale):
    config = SimulationConfig(
        worker_batches_per_s=10.0,
        trainer_batches_per_s=50.0,  # exact need: 5 workers
        initial_workers=initial_workers,
        worker_spinup_s=30.0,
        autoscaler=AutoscalerConfig(
            scale_up_step=2,
            # A static arm pins both bounds, so the controller holds it.
            max_workers=32 if autoscale else initial_workers,
            min_workers=1 if autoscale else initial_workers,
        ),
    )
    result = TimedDppSimulation(config).run(DURATION_S)
    worker_hours = sum(s.live_workers for s in result.samples) / 3_600.0
    return result, worker_hours


def run_ablation():
    return {
        "static undersized (3)": run_policy(3, autoscale=False),
        "static worst-case (12)": run_policy(12, autoscale=False),
        "autoscaled from 1": run_policy(1, autoscale=True),
        "autoscaled from 12": run_policy(12, autoscale=True),
    }


def test_ablation_autoscaler(benchmark):
    outcomes = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = []
    for name, (result, worker_hours) in outcomes.items():
        rows.append(
            [
                name,
                f"{100 * result.stall_fraction:.1f}%",
                f"{100 * result.stall_fraction_after(300.0):.1f}%",
                result.peak_workers,
                result.final_workers,
                f"{worker_hours:.2f}",
            ]
        )
    save_result(
        "ablation_autoscaler",
        render_table(
            ["policy", "stall (all)", "stall (steady)", "peak workers",
             "final workers", "worker-hours"],
            rows,
            title="Ablation — autoscaling vs static provisioning (need = 5 workers)",
        ),
    )
    static_under = outcomes["static undersized (3)"][0]
    static_over, over_hours = outcomes["static worst-case (12)"]
    scaled, scaled_hours = outcomes["autoscaled from 1"][0], outcomes["autoscaled from 1"][1]

    # Undersized static fleets stall forever.
    assert static_under.stall_fraction_after(300.0) > 0.9
    # Worst-case static never stalls but burns capacity.
    assert static_over.stall_fraction == 0.0
    # Autoscaling reaches stall-free steady state from one worker...
    assert scaled.stall_fraction_after(600.0) == 0.0
    # ...while spending fewer worker-hours than worst-case static.
    assert scaled_hours < over_hours
    # And an over-provisioned start drains down toward the need.
    drained = outcomes["autoscaled from 12"][0]
    assert drained.final_workers < 12

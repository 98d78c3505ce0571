"""Oracle of the accelerator branch of the stage graph.

Production traces the pruned model once (``accel_layers``), counts each
layer's stationary values once per geometry (``accel_schedule``) and
derives both variants' power from those counts (``accel_eval``).  The
oracle is the composition it replaced: :func:`accel_schedule` traces
the model for every geometry and keeps each layer's weights, and
:func:`accel_eval` calls ``layer_power`` twice per layer and walks every
layer again for each network total.  Both paths sum the same floats in
the same order, so their evaluations must pickle to the same bytes.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.power.estimator import PowerBreakdown
from repro.systolic import ArrayPowerModel, MacPowerParams
from repro.systolic.mapping import schedule_matmul


def accel_schedule(ops, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Pruned model traced and lowered onto the configured geometry."""
    spec, config = ops.accel_design()
    model = ops.model_from_state(inputs["pruned"]["state"])
    layers = []
    for workload in ops.trace_layers(model, config):
        schedule = workload.schedule
        if spec.stream_batch != 1:
            schedule = schedule_matmul(
                schedule.k, schedule.n,
                schedule.m * spec.stream_batch, config)
        layers.append({"name": workload.name,
                       "weights": workload.weights,
                       "schedule": schedule})
    return {"rows": config.rows, "cols": config.cols,
            "inferences": spec.stream_batch, "layers": layers}


def network_power(model: ArrayPowerModel, pairs, variant,
                  vdd=None) -> PowerBreakdown:
    """Cycle-weighted network power, every layer counted again."""
    energy_dyn = 0.0
    energy_leak = 0.0
    total_cycles = 0
    for schedule, weights in pairs:
        power = model.layer_power(schedule, weights, variant, vdd=None)
        cycles = schedule.total_cycles
        energy_dyn += power.dynamic_uw * cycles
        energy_leak += power.leakage_uw * cycles
        total_cycles += cycles
    breakdown = PowerBreakdown(
        dynamic_uw=energy_dyn / total_cycles,
        leakage_uw=energy_leak / total_cycles,
    )
    if vdd is not None:
        breakdown = breakdown.scaled(
            model.voltage_model.dynamic_power_scale(vdd),
            model.voltage_model.leakage_power_scale(vdd),
        )
    return breakdown


def accel_eval(ops, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer rows and network summary from :func:`accel_schedule`."""
    spec, config = ops.accel_design()
    variant = spec.hardware_variant()
    scaling = inputs["voltage_scaling"]
    schedule_out = inputs["accel_schedule"]
    inferences = schedule_out["inferences"]
    model = ArrayPowerModel(
        config,
        MacPowerParams(table=inputs["power_table"],
                       clock_power_uw=ops.config.clock_power_uw),
        voltage_model=ops.voltage_model,
    )
    period_s = config.clock_period_ps * 1e-12

    layer_rows = []
    pairs = []
    for layer in schedule_out["layers"]:
        schedule, weights = layer["schedule"], layer["weights"]
        power = model.layer_power(schedule, weights, variant)
        power_vs = model.layer_power(schedule, weights, variant,
                                     vdd=scaling.vdd)
        cycles = schedule.total_cycles
        time_s = cycles * period_s
        layer_rows.append({
            "layer": layer["name"],
            "k": schedule.k, "n": schedule.n, "m": schedule.m,
            "tiles": len(schedule), "cycles": cycles,
            "macs": schedule.total_macs,
            "utilization": schedule.utilization,
            "power": power, "power_vs": power_vs,
            "latency_us": time_s / inferences * 1e6,
            "energy_uj": power.total_uw * time_s / inferences,
            "energy_vs_uj": power_vs.total_uw * time_s / inferences,
        })
        pairs.append((schedule, weights))

    power = network_power(model, pairs, variant)
    power_vs = network_power(model, pairs, variant, vdd=scaling.vdd)
    total_cycles = sum(schedule.total_cycles for schedule, _ in pairs)
    total_macs = sum(schedule.total_macs for schedule, _ in pairs)
    time_s = total_cycles * period_s
    network = {
        "rows": config.rows, "cols": config.cols,
        "variant": spec.variant, "stream_batch": spec.stream_batch,
        "vdd": scaling.vdd,
        "total_cycles": total_cycles, "total_macs": total_macs,
        "utilization": total_macs / (total_cycles * config.n_pes),
        "power": power, "power_vs": power_vs,
        "latency_us": time_s / inferences * 1e6,
        "energy_uj": power.total_uw * time_s / inferences,
        "energy_vs_uj": power_vs.total_uw * time_s / inferences,
    }
    return {"layers": layer_rows, "network": network}

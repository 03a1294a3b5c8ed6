"""Cold set-up of qkdlab for one workload.

``python3 bench/probe.py CELLS_JSON SEED`` (with ``src`` on PYTHONPATH) runs
:func:`set_up` in a fresh interpreter and prints the time of each step, in
reference seconds, as one JSON line.  ``run.py`` starts several probes per
run and reports the median.
"""

from __future__ import annotations

import json
import sys
import warnings

from clock import Clock, interpreter_speed


def set_up(cells, seed: int, clock: Clock) -> dict[str, float]:
    """Import qkdlab, build the gate catalog, and run one one-particle trial
    per cell, so that every lazy cache (catalog, engines, conversion gates)
    is filled.  Returns each step's time as marked on the running ``clock``."""
    clock.mark()
    import qkdlab.cli  # noqa: F401  (the workloads enter through the CLI)
    from qkdlab import gates, protocols

    steps = {"import_s": clock.mark()}
    gates.catalog_fingerprint()
    steps["catalog_s"] = clock.mark()
    with warnings.catch_warnings():
        # One particle often sifts to an empty key; that warning is expected.
        warnings.simplefilter("ignore")
        for protocol, scenario, eve in cells:
            spec = protocols.PROTOCOLS[protocol]
            protocols.run_experiment(spec, scenario, eve, 1, spec.bits_per_particle, seed)
    steps["first_trial_s"] = clock.mark()
    return steps


if __name__ == "__main__":
    clock = Clock(interpreter_speed)
    clock.start()
    try:
        steps = set_up(json.loads(sys.argv[1]), int(sys.argv[2]), clock)
    finally:
        clock.stop()
    steps["raw_s"] = clock.raw
    print(json.dumps(steps))

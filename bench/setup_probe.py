"""Set-up probe, run in a fresh interpreter: everything before the first step.

Usage: python3 bench/setup_probe.py <config file>

Imports the CLI module (what the ``preytaxis`` console script imports),
parses and builds the config, evaluates the initial state and the decay
certificate, then prints one JSON line whose ``ready`` field is
``time.monotonic()`` at that point.  The clock is system-wide, so the
parent subtracts its own reading taken before it started this process.
"""

import json
import sys
import time

start = time.perf_counter()
import preytaxis.cli  # noqa: E402,F401
from preytaxis import (  # noqa: E402
    build_config,
    certify,
    check_stabilization_condition,
    initial_state,
    parse_items,
    steady_states,
)

imported = time.perf_counter()
with open(sys.argv[1]) as fh:
    config = build_config(parse_items(fh.read()))
built = time.perf_counter()
state = initial_state(config)
steady_states(config.params)
holds = check_stabilization_condition(config.params).holds
before_certify = time.perf_counter()
if holds:
    certify(config.params, float(state.v.values.max()))
done = time.perf_counter()
ready = time.monotonic()
print(json.dumps({
    "ready": ready,
    "import_s": imported - start,
    "build_s": built - imported,
    "certify_s": done - before_certify,
}))

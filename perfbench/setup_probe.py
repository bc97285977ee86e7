"""Time one set-up in a fresh interpreter and print the seconds it took.

Set-up is what a user pays before the first turn: importing the package,
parsing and validating the config files, and constructing the agents.

Usage: python3 setup_probe.py SRC_DIR CONFIG_FILE...
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from signalgames import cli, engine  # noqa: E402

for path in sys.argv[2:]:
    for experiment in cli.parse_config(path):
        engine.build_agents(experiment.trajectory)
print(repr(time.perf_counter() - start))

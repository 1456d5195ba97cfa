"""Set-up probe: what every ``qcascade`` invocation pays before it runs anything.

Usage: python3 perfbench/setup_probe.py CONFIG_JSON...

Imports ``qcascade.cli``, loads and validates each config, and exits 1 if
any config is invalid.  run.py times the whole process from outside, from
interpreter start to exit.
"""

import sys

from qcascade import cli

sys.exit(1 if any(cli.validate(cli.load_config(p)) for p in sys.argv[1:]) else 0)

"""Module entry point: ``python -m repro.experiments <subcommand>``.

Dispatches straight to :func:`repro.experiments.cli.main`; see that
module for the subcommands (list / run / report / merge / trace).
"""

import sys

from repro.experiments.cli import main

sys.exit(main())

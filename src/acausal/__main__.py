"""``python -m acausal``: the ``acausal`` command line, run from a checkout
without the console script installed."""

import sys

from .cli import main

sys.exit(main())

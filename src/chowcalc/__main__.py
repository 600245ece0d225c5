"""``python -m chowcalc``: the same command line as the ``chowcalc`` script."""

import sys

from .cli import main

sys.exit(main())

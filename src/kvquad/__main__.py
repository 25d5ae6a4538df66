"""``python -m kvquad``: the command-line interface of :mod:`kvquad.cli`."""

import sys

from .cli import main

sys.exit(main())

"""``python -m expratio``: the same command line as the ``expratio`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

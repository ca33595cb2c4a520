"""`python -m hatlab`: the same command line as the `hatlab` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

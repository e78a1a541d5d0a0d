"""`python -m minclique`: the same command line as the `minclique` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

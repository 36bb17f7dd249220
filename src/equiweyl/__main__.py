"""``python -m equiweyl``: the command-line front end, as the ``equiweyl`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

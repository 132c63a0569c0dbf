"""``python -m liftedcodes ...`` runs the command-line interface."""

import sys

from liftedcodes.cli import main

if __name__ == "__main__":
    sys.exit(main())

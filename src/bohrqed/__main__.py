"""``python -m bohrqed <command> ...`` runs the command line of :mod:`bohrqed.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m r1poly``: the command line of ``r1poly.cli``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m fsemcalc``: the command-line interface, runnable from a checkout."""
from .cli import main

raise SystemExit(main())

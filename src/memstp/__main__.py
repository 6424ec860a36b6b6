"""``python -m memstp``: the memstp command line."""

from .cli import main

raise SystemExit(main())

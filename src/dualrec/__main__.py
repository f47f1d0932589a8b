"""Process entry of the ``dualrec`` command.

``python -m dualrec`` and the ``dualrec`` console script both call
:func:`run`, which runs one CLI command as a whole process.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Freeze the import-time heap, then run the CLI on ``sys.argv``.

    Every module is imported by now. ``gc.freeze`` moves the objects they
    built out of reach of every later collection, those at interpreter
    shutdown included, so the process neither traverses nor frees them
    and the OS reclaims their memory at exit. ``cli.main`` does not
    freeze: a caller that runs it in-process, many times, keeps its own
    heap collectable.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())

"""Output-checked benchmark of the cluenet backbone (see run.py).

The package always measures the checkout it sits in: ``src/`` next to this
directory goes first on the import path, ahead of any installed cluenet.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

"""Put the program under test on the path, as ``PYTHONPATH=src`` would."""

import sys

from stackbench import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

"""The program's first-use set-up, timed from before `import latsym`.

Set-up is the standard model, its discriminant form (a Smith form) and the
class table with its errata applied: what every workload needs before its
first input.  Run as a script, this times one set-up in a fresh interpreter,
then N calibration chunks (calibrate.py), and prints the seconds of each:

    python3 perfbench/setup_sample.py [N]
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def program_setup():
    """Import latsym and build what its first input needs; returns the model."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from latsym import cli, discform, fixtures, lattice  # noqa: F401
    model = lattice.standard_model()
    discform.discriminant_form(model.lattice)
    fixtures.load_table()
    return model


if __name__ == "__main__":
    start = time.perf_counter()
    program_setup()
    setup = time.perf_counter() - start
    from calibrate import timed_chunks  # after the clock: it imports fractions
    cal = timed_chunks(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
    print(repr(setup), repr(cal))

"""Cold start of the simulator, timed from inside a fresh interpreter.

    python3 perfbench/coldstart.py <specint|apache> <seed>

Imports the ``repro`` command line -- everything ``repro run`` loads --
and builds the workload's canonical SMT machine with the OS executed,
then prints the seconds that took.  ``run.py`` starts it several times
per run and reports the median as ``setup_s``: work moved into import
time or into building a machine shows there.
"""

import pathlib
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                           / "src"))
    import repro.cli  # noqa: F401  (what every `repro` command imports)
    from repro.analysis import experiments

    experiments.build_simulation(argv[0], "smt", "full", seed=int(argv[1]))
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

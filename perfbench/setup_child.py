"""One cold set-up, run as a fresh process by the benchmark.

Imports ``splitenc.cli`` and loads one workload's inputs, then prints one
JSON line with the in-process import and load times.  The parent times the
whole thing from spawn to that line.

    python3 setup_child.py mc CONFIG.yaml
    python3 setup_child.py cli PANEL.csv ERRORS.csv
"""

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import splitenc.cli

    t1 = time.perf_counter()
    if argv[0] == "mc":
        splitenc.cli.load_experiment_config(argv[1])
    else:
        splitenc.cli.load_panel(argv[1])
        splitenc.cli._read_errors_file(argv[2])
    t2 = time.perf_counter()
    print(json.dumps({"import_ms": 1e3 * (t1 - t0), "load_ms": 1e3 * (t2 - t1),
                      "module": splitenc.cli.__file__}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One set-up sample in a fresh interpreter: import the package, build the instance.

Usage: ``python3 e2ebench/setup_probe.py <workload> <seed>``.  Prints one
JSON line ``{"import_s": ..., "build_s": ...}``.  ``run.py`` starts several
of these one after another and reports the median as ``setup_s``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    tick = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    instance = workloads.build_instance(workloads.WORKLOADS[name], seed)
    instance.new_matcher()
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - tick, "build_s": built - imported}))


if __name__ == "__main__":
    main()

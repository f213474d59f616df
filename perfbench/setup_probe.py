"""Set-up probe: import resgate (CLI included) and build one config.

    python3 perfbench/setup_probe.py '<config json>'

Run by run.py in a fresh interpreter with src/ on PYTHONPATH. Samples the
scalar calibration kernel (stdlib only) right before and after the timed
part, in this same process, and prints the import and config-building
times with the calibration factor as one JSON line.
"""

import json
import sys
import time

from calibration import HostSpeed

speed = HostSpeed("scalar")
speed.sample(force=True)
start = time.perf_counter()
import resgate  # noqa: E402
import resgate.cli  # noqa: E402,F401

imported = time.perf_counter()
resgate.config_from_dict(json.loads(sys.argv[1]), source="setup_probe")
built = time.perf_counter()
speed.sample(force=True)
print(json.dumps({"import_s": imported - start, "config_s": built - imported,
                  "factor": speed.factor(start, built)}))

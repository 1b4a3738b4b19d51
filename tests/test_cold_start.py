"""Which processes load SciPy and networkx (docs/architecture.md, "The
import rule").

No command loads either.  The prediction model is closed-form, so the
service answers without running a kernel; the two scientific kernels
label their chunks with the package's own union-find
(``repro.apps.joining.label_components``), so they run with SciPy
unimportable and give the same results.  The grid topology's path search
is plain Python, so no command loads networkx.  Each check runs in a
fresh child process, where ``sys.modules`` shows exactly what the code
under test imported.
"""

import json
import os
import subprocess
import sys

from repro.apps.defect import DefectDetection
from repro.apps.vortex import VortexDetection
from repro.datagen.cfd import make_field_dataset
from repro.datagen.lattice import make_lattice_dataset

from tests.apps.conftest import execute


def run_child(script):
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


#: ``repro serve --port``'s construction, then one predict and one
#: what-if through ``handle``.
_SERVICE = """
import json, sys
from repro.service.app import PredictionService, ServiceRequest
from repro.service.backends import ServiceBackend, ServiceCostModel
from repro.service.clock import MonotonicClock
from repro.service.http import make_server
from repro.service.resilience import ResilienceConfig
from repro.service.workload import demo_profiles

service = PredictionService(
    demo_profiles(),
    clock=MonotonicClock(),
    config=ResilienceConfig(admission_rate=600.0, admission_burst=64.0),
    backend=ServiceBackend(ServiceCostModel()),
)
responses = [
    service.handle(ServiceRequest(
        "p", "predict", {"profile": "kmeans", "data_nodes": 2, "compute_nodes": 4})),
    service.handle(ServiceRequest(
        "w", "what-if", {"profile": "kmeans", "pairs": [[1, 2], [4, 8]]})),
]
print(json.dumps({
    "statuses": [r.status for r in responses],
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_the_service_answers_without_scipy():
    result = run_child(_SERVICE)
    assert result["statuses"] == [200, 200]
    assert result["scipy"] == []


def vortex_and_defect():
    vortex = execute(
        VortexDetection(),
        make_field_dataset("vx", ny=96, nx=64, num_chunks=8, num_vortices=3, seed=21),
        2, 4,
    )
    defect = execute(
        DefectDetection(),
        make_lattice_dataset("df", nz=32, ny=8, nx=8, num_chunks=8, num_defects=4,
                             seed=23),
        2, 4,
    )
    return repr((vortex.result, defect.result))


#: The same two runs in a child where ``import scipy`` fails.
_KERNELS = """
import json, sys
sys.modules["scipy"] = None
from tests.test_cold_start import vortex_and_defect

print(json.dumps({"results": vortex_and_defect()}))
"""


def test_vortex_and_defect_run_without_scipy():
    result = run_child(_KERNELS)
    assert result["results"] == vortex_and_defect()


#: A fast figure and a broker estimate on the reference grid: the two
#: paths that query replica-to-compute routes.
_GRID = """
import json, sys
from repro.broker import GridBroker
from repro.workloads.experiments import run_experiment
from repro.workloads.traces.grids import REFERENCE_ALLOCATIONS, reference_grid

figure = run_experiment("fig02", fast=True)
broker = GridBroker(reference_grid(), REFERENCE_ALLOCATIONS)
estimate = broker.baseline_estimate("kmeans")
print(json.dumps({
    "rows": len(figure.rows),
    "estimate": estimate,
    "networkx": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"),
}))
"""


def test_figures_and_the_broker_run_without_networkx():
    result = run_child(_GRID)
    assert result["rows"] > 0
    assert result["estimate"] > 0
    assert result["networkx"] == []

"""Round-based market simulation.

The simulator closes the loop the abstract describes: assignment
quality and worker willingness feed back into each other.  Each round:

1. fresh tasks are posted (regenerated from the scenario's task
   distribution);
2. the scenario's solver assigns active workers to tasks;
3. assigned workers produce answers; answers are aggregated; accuracy
   against ground truth is recorded;
4. workers receive their worker-side benefit; the retention model
   updates satisfaction and stochastically churns dissatisfied workers.

Long-run metrics (experiments T4/F5) come out of this loop.
"""

from repro.sim.engine import Simulation
from repro.sim.metrics import RoundMetrics, SimulationResult
from repro.sim.scenario import Scenario

__all__ = [
    "RoundMetrics",
    "Scenario",
    "Simulation",
    "SimulationResult",
]

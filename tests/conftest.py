import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield
    ray.shutdown()


class ExecutedDags(list):
    """The physical plan (root operator) of every Dataset execution run
    so far, in order: ``len()`` is the number of executions."""

    def operators(self) -> list:
        """Every physical operator of every recorded plan."""
        ops, stack = [], list(self)
        while stack:
            op = stack.pop()
            ops.append(op)
            stack.extend(op.input_dependencies)
        return ops


@pytest.fixture
def executed_dags(monkeypatch) -> ExecutedDags:
    """Records each Dataset execution (``StreamingExecutor.execute``)
    while the test runs; read ``len(executed_dags)`` before and after a
    step to count the step's executions."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    dags = ExecutedDags()
    orig_execute = StreamingExecutor.execute

    def _execute(self, dag, *a, **k):
        dags.append(dag)
        return orig_execute(self, dag, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", _execute)
    return dags

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
    so far, in order: ``len()`` is the number of executions.
    ``reserved[i]`` says whether execution i ran with Ray Data's
    per-operator resource reservation."""

    def __init__(self):
        super().__init__()
        self.reserved: list[bool] = []

    def operators(self, start: int = 0) -> list:
        """Every physical operator of the plans recorded from execution
        ``start`` on (default: all)."""
        ops, stack = [], list(self[start:])
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
        out = orig_execute(self, dag, *a, **k)
        dags.reserved.append(
            self._resource_manager.op_resource_allocator_enabled()
        )
        return out

    monkeypatch.setattr(StreamingExecutor, "execute", _execute)
    return dags

"""Guards on the shape of the code.

Which fedvid modules the record rule and the wire protocol may import: the
record rule reads every outside record, so it depends on no other module,
and the wire protocol reads its frames through it, not through the simulator.
An import under `if TYPE_CHECKING:` serves annotations only and is not counted.

The records that a run keeps per tick and per row are slotted.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fedvid"


def _fedvid_imports(name: str) -> set[str]:
    """The fedvid modules that `name`.py imports when it runs."""
    found = set()

    def add(module, names):   # `from <module> import <names>` inside the package
        found.update([module.split(".")[0]] if module else [a.name for a in names])

    def visit(node):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            return
        if isinstance(node, ast.ImportFrom) and node.level:   # from .x import y, from . import x
            add(node.module, node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "fedvid":
            add(node.module.partition(".")[2], node.names)     # from fedvid[.x] import y
        elif isinstance(node, ast.Import):                       # import fedvid[.x]
            found.update(a.name.partition(".")[2] or "fedvid" for a in node.names
                         if a.name.split(".")[0] == "fedvid")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse((SRC / f"{name}.py").read_text()))
    return found


@pytest.mark.parametrize("name, imports", [("records", set()), ("fed", {"model", "records"})])
def test_module_imports_only_its_layer(name, imports):
    assert _fedvid_imports(name) == imports


def test_per_tick_and_per_row_records_are_slotted():
    # a slotted instance holds no __dict__: 72 B for a Message, not 168 B
    from fedvid import labeling, plates, scenario

    cfg = scenario.WorldConfig(seed=3, num_vehicles=20, duration=5.0)
    state, observations = scenario.run_scenario(cfg)
    run = labeling.label_run(observations, plates.default_conversion_table(), cfg)
    obs = next(o for o in observations if o.front_boxes and o.messages)
    instances = [state.ego, obs, obs.front_boxes[0], obs.messages[0], obs.ego_sensors,
                 run.labels[0], labeling.assemble_dataset(run, labeling.DatasetMode.ALDA)[0]]
    assert [type(x).__name__ for x in instances] == [
        "VehicleState", "Observation", "DetectedBox", "Message", "SensorRecord",
        "TickLabels", "LabeledExample"]
    assert [x for x in instances if hasattr(x, "__dict__")] == []


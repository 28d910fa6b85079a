import pytest

from mockskel.features import Attribute, Instance, InstanceTable, Role
from mockskel.prep import coerce_to_nominal, project_for_target
from mockskel.synth import generate_synthetic_log


@pytest.fixture(scope="session")
def synth_log():
    """The acceptance-scale synthetic recording (5000 transactions)."""
    return generate_synthetic_log(5000, 200, seed=7)


@pytest.fixture(scope="session")
def small_synth_log():
    return generate_synthetic_log(800, 40, seed=3)


def make_dataset(rows, input_names, target_name="statusCode"):
    """Build a single-target PreparedDataset from (inputs..., target) rows."""
    schema = tuple(Attribute(n, Role.INPUT) for n in input_names) + (
        Attribute(target_name, Role.TARGET),
    )
    table = InstanceTable(
        schema=schema,
        instances=tuple(
            Instance(tuple(str(v) for v in row), f"t{i}") for i, row in enumerate(rows)
        ),
    )
    return project_for_target(coerce_to_nominal(table), target_name)


def row_mapping(ds, i):
    """Row ``i`` of a prepared dataset as name -> value, decoded from its codes."""
    row = {name: domain[code] for name, domain, code in zip(ds.names, ds.domains, ds.X[i])}
    row[ds.target] = ds.target_domain[ds.y[i]]
    return row


def target_labels(ds):
    """The target column of a prepared dataset, decoded from its codes."""
    return [ds.target_domain[code] for code in ds.y]

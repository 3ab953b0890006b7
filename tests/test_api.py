"""The package namespace is exactly the union of its modules' ``__all__`` lists."""

import ultraclust
from ultraclust import clustering, data, dendrogram, errors, semiring, ultrametric

MODULES = (clustering, data, dendrogram, errors, semiring, ultrametric)


def test_package_all_is_the_union_of_the_modules_all():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(set(names)) == len(names)  # each name is listed by one module only
    assert len(set(ultraclust.__all__)) == len(ultraclust.__all__)
    assert set(ultraclust.__all__) == set(names)


def test_every_name_is_its_modules_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(ultraclust, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_power_chain_and_the_sweep_are_public():
    from ultraclust import minimax_oracle, power_chain

    assert power_chain is semiring.power_chain
    assert minimax_oracle is ultrametric.minimax_oracle
    assert not hasattr(semiring, "minimax_oracle")


def test_distance_histogram_stays_bound_in_clustering():
    from ultraclust import DistanceHistogram

    assert DistanceHistogram is dendrogram.DistanceHistogram is clustering.DistanceHistogram

"""The private construction path: values the package builds from checked values.

Every object built through a ``_trusted`` constructor is rebuilt through the
public constructor from the same fields, and the two must agree field for
field: equal arrays of the same dtype, read-only on both sides, the same
multiplicities and segments.
"""

import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ncstat.algebra import AlgebraSpec, State
from ncstat.entropy import convex_sum_objects
from ncstat.generators import GeneratorConfig
from ncstat.hypotheses import NCObject
from ncstat.laws import run_laws
from ncstat.maps import CPUMap, StarHom

SITES = {
    State: {
        "cpu_pushforward_state",
        "pushforward_state",
        "conjugate_state",
        "convex_sum_objects",
        "conditional_entropy",
    },
    StarHom: {
        "direct_sum_homs",
        "strip_conjugators",
        "identity_hom",
        "tensor_inclusion_morphism",
        "rectify_pair",
    },
    CPUMap: {
        "hom_to_cpu",
        "compose_cpu",
        "direct_sum_cpus",
        "build_hypothesis_from_alphas",
        "rectify_morphism",
        "rectify_pair",
    },
}


def _same_arrays(trusted, public):
    assert len(trusted) == len(public)
    for a, b in zip(trusted, public):
        assert a.dtype == b.dtype == np.complex128
        assert not a.flags.writeable and not b.flags.writeable
        assert np.array_equal(a, b)


def _same_as_public(obj):
    if isinstance(obj, State):
        public = State(obj.algebra, obj.densities)
        assert public.algebra == obj.algebra and obj._supports == {}
        _same_arrays(obj.densities, public.densities)
    elif isinstance(obj, StarHom):
        public = StarHom(obj.source, obj.target, obj.mult, obj.conjugators)
        assert (public.source, public.target) == (obj.source, obj.target)
        assert public.mult == obj.mult and public.segments == obj.segments
        _same_arrays(obj.conjugators, public.conjugators)
    else:
        public = CPUMap(obj.source, obj.target, obj.components)
        assert (public.source, public.target) == (obj.source, obj.target)
        assert all(type(row) is tuple for row in obj.components)
        for row, public_row in zip(obj.components, public.components):
            _same_arrays(row, public_row)


@pytest.fixture
def built(monkeypatch):
    """Per (class, call site), how many objects _trusted built; each is checked
    against the public constructor the moment it is built."""
    counts = Counter()
    for cls in SITES:
        trusted = cls._trusted.__func__

        def recording(klass, *args, _trusted=trusted):
            obj = _trusted(klass, *args)
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_conjugation":  # Ad of checked unitaries
                caller = caller.f_back
            counts[klass, caller.f_code.co_name] += 1
            _same_as_public(obj)
            return obj

        monkeypatch.setattr(cls, "_trusted", classmethod(recording))
    return counts


def test_every_trusted_call_site_matches_the_public_constructor(built):
    assert run_laws(GeneratorConfig(seed=42, trials=3)).ok
    reached = {cls: {site for c, site in built if c is cls} for cls in SITES}
    assert reached == SITES


def test_run_laws_checks_each_hom_and_no_cpu_map_again(monkeypatch):
    calls = Counter()
    for cls in (StarHom, CPUMap):
        post_init = cls.__post_init__

        def counting(self, _post_init=post_init, _name=cls.__name__):
            calls[_name] += 1
            _post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    assert run_laws(GeneratorConfig(seed=42, trials=10)).ok
    assert calls["StarHom"] <= 280  # 400 when every hom was checked
    assert calls["CPUMap"] == 0  # 400 when every map was checked


def test_convex_sum_keeps_complex_densities_for_any_real_weight():
    obj = NCObject(State(AlgebraSpec((2,)), (np.eye(2) / 2,)))
    mixed = convex_sum_objects(Fraction(1, 4), obj, obj)
    assert all(d.dtype == np.complex128 for d in mixed.state.densities)

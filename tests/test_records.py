"""The record classes: construction, equality, immutability and repr.

Only ``core.Grid1D``, ``core.ProblemSpec`` and ``steppers.SchemeMatrices``
are dataclasses.  Every other record is a NamedTuple or a plain class,
and these tests pin what callers rely on: the field order, type-sensitive
equality of the scheme descriptors and wall types (they key the kept
operator), immutability where the record was frozen, and a repr that
names the class and its fields.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cpde
from cpde import analysis
from cpde.core import Dirichlet, Neumann, SampleSolution
from cpde.interior import CompactRow
from cpde.linalg import Tridiag, TridiagLU
from cpde.neumann import BoundaryRow, ClassicNeumann, CompactThreePoint, MainTerms, ReducedTwoPoint
from cpde.steppers import Classic, ClassicRhsVariant, Compact, StepReport
from cpde.theta_fit import ExpFit

# every public record that is not a dataclass, with its fields in order
FROZEN = [
    (Dirichlet, ("left", "right")),
    (Neumann, ()),
    (SampleSolution, ("name", "params", "problem", "exact", "exact_dt", "exact_dx",
                      "exact_dxx", "theta_dx")),
    (ExpFit, ("c1", "c2", "c3", "c4", "theta_center", "r_minus", "r_plus")),
    (CompactRow, ("b_l0", "a_0", "b_r0", "b_l1", "a_1", "b_r1",
                  "q_l0", "p_0", "q_r0", "q_l1", "p_1", "q_r1")),
    (CompactThreePoint, ()),
    (ReducedTwoPoint, ()),
    (MainTerms, ()),
    (ClassicNeumann, ("epsilon",)),
    (BoundaryRow, ("alpha_new", "alpha_old", "beta_new", "beta_old", "nu0", "tau")),
    (Compact, ("cut", "neumann")),
    (Classic, ("rhs", "neumann")),
    (analysis.ConvergenceEntry, ("n", "h", "tau", "steps", "error", "muls_per_step")),
    (analysis.ConvergenceReport, ("entries", "estimated_order", "lsq_order")),
    (analysis.RichardsonEntry, ("n", "h", "error_h", "error_extrapolated")),
    (analysis.RichardsonReport, ("entries", "order_h", "order_extrapolated")),
    (analysis.SpectrumReport, ("eigenvalues", "max_modulus", "max_imag_abs", "all_negative",
                               "generator_imag_abs")),
    (analysis.AsymmetryEntry, ("n", "h", "tau", "s_transition", "s_forcing")),
    (analysis.AsymmetryReport, ("entries", "order_transition", "order_forcing")),
    (analysis.NegativityBracket, ("lower", "upper")),
    (analysis.DriftEntry, ("n", "h", "baseline", "amplitude")),
    (analysis.DriftReport, ("entries", "slope")),
]
MUTABLE = [
    (Tridiag, ("lower", "diag", "upper")),
    (TridiagLU, ("diag", "maps", "fwd_in", "back_in", "carries")),
    (StepReport, ("final_state", "muls_per_step", "steps")),
]
FIELDLESS = [Neumann, CompactThreePoint, ReducedTwoPoint, MainTerms]


def ids(table):
    return [cls.__name__ for cls, _ in table]


def sample_values(fields):
    # 1, 1/2, 1/3, ...: distinct, and a valid ClassicNeumann epsilon first
    return tuple(1.0 / (i + 1) for i in range(len(fields)))


@pytest.mark.parametrize("cls,fields", FROZEN + MUTABLE, ids=ids(FROZEN + MUTABLE))
def test_positional_and_keyword_construction(cls, fields):
    values = sample_values(fields)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for name, value in zip(fields, values):
        assert getattr(by_position, name) == getattr(by_keyword, name) == value
    with pytest.raises(TypeError):
        cls(*values, 0.0)


@pytest.mark.parametrize("cls,fields", FROZEN, ids=ids(FROZEN))
def test_frozen_records_refuse_assignment(cls, fields):
    obj = cls(*sample_values(fields))
    for name in fields or ("anything",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.25)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in fields) == sample_values(fields)


@pytest.mark.parametrize("cls,fields", MUTABLE, ids=ids(MUTABLE))
def test_mutable_records_take_assignment(cls, fields):
    obj = cls(*sample_values(fields))
    for name in fields:
        setattr(obj, name, 0.25)
        assert getattr(obj, name) == 0.25


@pytest.mark.parametrize("cls,fields", FROZEN, ids=ids(FROZEN))
def test_repr_names_the_class_and_its_fields(cls, fields):
    text = repr(cls(*sample_values(fields)))
    assert text.startswith(cls.__name__ + "(")
    for name, value in zip(fields, sample_values(fields)):
        assert f"{name}={value!r}" in text


DESCRIPTORS = [
    Compact(),
    Compact(cut=7, neumann=MainTerms()),
    Compact(neumann=ClassicNeumann(0.8)),
    Classic(),
    Classic(ClassicRhsVariant.FIVE_POINT, ClassicNeumann(0.8)),
    ClassicNeumann(0.5),
    ClassicNeumann(0.8),
    CompactThreePoint(),
    ReducedTwoPoint(),
    MainTerms(),
    Neumann(),
    # the same fields as Classic(), under the other type
    Compact(ClassicRhsVariant.POINTWISE, ClassicNeumann(0.5)),
]


@pytest.mark.parametrize("i", range(len(DESCRIPTORS)), ids=[repr(d) for d in DESCRIPTORS])
def test_descriptors_equal_by_type_and_fields(i):
    for j, other in enumerate(DESCRIPTORS):
        twin = copy.deepcopy(other)
        assert twin == other and hash(twin) == hash(other) and not twin != other
        assert (DESCRIPTORS[i] == other) is (i == j)
        assert (DESCRIPTORS[i] != other) is (i != j)
    assert len(set(DESCRIPTORS + [copy.copy(d) for d in DESCRIPTORS])) == len(DESCRIPTORS)


def test_descriptors_survive_pickling():
    assert pickle.loads(pickle.dumps(DESCRIPTORS)) == DESCRIPTORS


@pytest.mark.parametrize("epsilon", [0.0, -0.5, 1.5, float("nan")])
def test_classic_neumann_rejects_epsilon_outside_unit_interval(epsilon):
    with pytest.raises(ValueError, match="epsilon must lie in"):
        ClassicNeumann(epsilon)
    assert ClassicNeumann(1.0).epsilon == 1.0


@pytest.mark.parametrize("cls", FIELDLESS, ids=[c.__name__ for c in FIELDLESS])
def test_fieldless_records_are_truthy(cls):
    assert cls()


def test_only_three_dataclasses_after_import():
    """A fresh interpreter finds exactly three dataclasses among cpde's module
    attributes: every other one would compile its methods at import."""
    code = (
        "import dataclasses, sys\n"
        "import cpde, cpde.cli\n"
        "found = {f'{v.__module__}.{v.__qualname__}'\n"
        "         for name, module in list(sys.modules.items())\n"
        "         if name == 'cpde' or name.startswith('cpde.')\n"
        "         for v in vars(module).values()\n"
        "         if isinstance(v, type) and dataclasses.is_dataclass(v)}\n"
        "print(' '.join(sorted(found)))\n"
    )
    src = str(Path(cpde.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == [
        "cpde.core.Grid1D", "cpde.core.ProblemSpec", "cpde.steppers.SchemeMatrices"]

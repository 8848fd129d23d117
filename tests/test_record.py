"""The package's records, built on milstab._record.Record, behave as frozen dataclasses.

Each of the 12 records takes its fields positionally or by keyword, with
defaults, refuses assignment and deletion, compares and hashes by its fields,
and prints the text dataclasses gave it; LogModulusPath leaves its flags out.
The pinned repr strings are the dataclass texts of the same records.
RngStream, the one mutable class, compares by all but its generator.
"""

import numpy as np
import pytest

from milstab._record import Record
from milstab.exponents import ConvergenceFit, ExponentEstimate, Method, RemainderReport
from milstab.lemmas import BoundKind, LogBoundDomain, SandwichReport
from milstab.model import InitialDatum, ModelParams, RegionClass, Sense, StabilityClass
from milstab.scheme import LogModulusPath, SchemeConfig, _StepFactor
from milstab.stochastics import QuadratureRule, RngStream

_PATH = (np.array([0.0, 1.0]), np.array([False]))
_RULE = (np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))

#: (class, positional fields, the same by keyword, the dataclass repr).
RECORDS = [
    (ModelParams, (8.0, 2.0, 4.0), {"lam": 8.0, "epsilon": 2.0, "sigma": 4.0},
     "ModelParams(lam=8.0, epsilon=2.0, sigma=4.0)"),
    (InitialDatum, (3.0, 4.0), {"y0": 4.0, "x0": 3.0}, "InitialDatum(x0=3.0, y0=4.0)"),
    (RegionClass, (Sense.ALMOST_SURE, StabilityClass.STABLE),
     {"sense": Sense.ALMOST_SURE, "class_": StabilityClass.STABLE},
     "RegionClass(sense=<Sense.ALMOST_SURE: 'almost-sure'>, "
     "class_=<StabilityClass.STABLE: 'stable'>)"),
    (SchemeConfig, (0.01, 10), {"dt": 0.01, "n_steps": 10},
     "SchemeConfig(dt=0.01, n_steps=10, theta=None)"),
    (LogModulusPath, (0.5, *_PATH), {"dt": 0.5, "log_values": _PATH[0], "flags": _PATH[1]},
     "LogModulusPath(dt=0.5, log_values=array([0., 1.]))"),
    (_StepFactor, (1.5, 0.5, 2.0, 4.0, 1.0, 0.01),
     {"c0": 1.5, "c0m1": 0.5, "mean_rate": 2.0, "sigma": 4.0, "denom": 1.0, "dt": 0.01},
     "_StepFactor(c0=1.5, c0m1=0.5, mean_rate=2.0, sigma=4.0, denom=1.0, dt=0.01)"),
    (LogBoundDomain, (1.0, BoundKind.UPPER), {"kind": BoundKind.UPPER, "gamma": 1.0},
     "LogBoundDomain(gamma=1.0, kind=<BoundKind.UPPER: 'upper'>)"),
    (SandwichReport, (0.1, 0.2, 0, 0, 10, -1e-12),
     {"worst_upper_margin": 0.1, "worst_lower_margin": 0.2, "upper_violations": 0,
      "lower_violations": 0, "n_points": 10, "tol": -1e-12},
     "SandwichReport(worst_upper_margin=0.1, worst_lower_margin=0.2, upper_violations=0, "
     "lower_violations=0, n_points=10, tol=-1e-12)"),
    (ExponentEstimate, (1.5, Method.MS_EXACT, 0.01),
     {"value": 1.5, "method": Method.MS_EXACT, "dt": 0.01},
     "ExponentEstimate(value=1.5, method=<Method.MS_EXACT: 'ms-exact'>, dt=0.01, "
     "std_error=None, n_samples=None)"),
    (ConvergenceFit, (2.0, 1.0, 0.1, (0.1, 0.01, 0.001), (1.0, 0.1, 0.01)),
     {"constant_C": 2.0, "order_p": 1.0, "residual": 0.1, "dts": (0.1, 0.01, 0.001),
      "errors": (1.0, 0.1, 0.01)},
     "ConvergenceFit(constant_C=2.0, order_p=1.0, residual=0.1, dts=(0.1, 0.01, 0.001), "
     "errors=(1.0, 0.1, 0.01))"),
    (RemainderReport, (0.1, 0.2, 3, True),
     {"value": 0.1, "bound": 0.2, "terms_used": 3, "converged": True},
     "RemainderReport(value=0.1, bound=0.2, terms_used=3, converged=True)"),
    (QuadratureRule, _RULE, {"nodes": _RULE[0], "weights": _RULE[1]},
     "QuadratureRule(nodes=array([-1.,  0.,  1.]), weights=array([0.25, 0.5 , 0.25]))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
#: Records with an array field, which dataclasses left unhashable too.
ARRAY_RECORDS = (LogModulusPath, QuadratureRule)


def test_every_record_is_covered():
    assert len(RECORDS) == 12
    records = {sub for sub in _subclasses(Record) if sub.__module__.startswith("milstab.")}
    assert {cls for cls, *_ in RECORDS} == records


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, args, kwargs, text):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert tuple(vars(by_position)) == tuple(vars(by_keyword)) == cls._fields
    for name, value in zip(cls._fields, args):
        assert getattr(by_keyword, name) is kwargs[name]
        assert getattr(by_position, name) is value
    mixed = cls(args[0], **{name: kwargs[name] for name in cls._fields[1:len(args)]})
    assert repr(mixed) == repr(by_keyword) == text


def test_defaults_fill_the_fields_left_out():
    assert SchemeConfig(0.01, 10).theta is None
    assert SchemeConfig(0.01, 10, 0.5) == SchemeConfig(theta=0.5, n_steps=10, dt=0.01)
    estimate = ExponentEstimate(1.5, Method.AS_MONTE_CARLO, 0.01, 0.25)
    assert (estimate.std_error, estimate.n_samples) == (0.25, None)


@pytest.mark.parametrize(
    "args, kwargs",
    [((8.0, 2.0), {}), ((8.0, 2.0, 4.0, 1.0), {}), ((8.0, 2.0, 4.0), {"lam": 1.0}),
     ((), {"lam": 8.0, "epsilon": 2.0, "sigma": 4.0, "tau": 1.0})],
    ids=["missing", "too-many", "twice", "unknown"],
)
def test_bad_arguments_are_refused(args, kwargs):
    with pytest.raises(TypeError, match=r"^ModelParams\(\) "):
        ModelParams(*args, **kwargs)


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_assignment_and_deletion_are_refused(cls, args, kwargs, text):
    record = cls(*args)
    name = cls._fields[0]
    with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
        setattr(record, name, args[0])
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$"):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=IDS)
def test_equality_and_hash_by_fields(cls, args, kwargs, text):
    record, twin = cls(*args), cls(**kwargs)
    assert record == twin and not record != twin
    assert (record == args) is False
    if cls in ARRAY_RECORDS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    assert hash(record) == hash(twin) == hash(tuple(vars(record).values()))
    assert len({record, twin}) == 1
    # the first float field halved, which every record's checks accept
    name = next((name for name in cls._fields if type(kwargs[name]) is float), None)
    if name is not None:
        assert record != cls(**{**kwargs, name: kwargs[name] / 2})


def test_a_subclass_keeps_its_parents_fields():
    class Datum(InitialDatum):
        def log_modulus(self):
            return 0.0

    d = Datum(3.0, y0=4.0)
    assert (d.x0, d.y0, d.squared_modulus(), d.log_modulus()) == (3.0, 4.0, 25.0, 0.0)
    assert repr(d).endswith("Datum(x0=3.0, y0=4.0)")
    assert d != InitialDatum(3.0, 4.0)
    with pytest.raises(ValueError, match="origin"):
        Datum(0.0, 0.0)

    class Extended(ModelParams):
        tau: float = 1.0

    assert Extended._fields == ("lam", "epsilon", "sigma", "tau")
    assert Extended(1.0, 2.0, 3.0).tau == 1.0
    assert ModelParams._fields == ("lam", "epsilon", "sigma")


def test_post_init_checks_run_on_construction():
    with pytest.raises(ValueError, match="must be finite"):
        ModelParams(lam=float("nan"), epsilon=0.0, sigma=1.0)
    with pytest.raises(ValueError, match="dt must lie"):
        SchemeConfig(dt=2.0, n_steps=1)
    with pytest.raises(ValueError, match="one entry per step"):
        LogModulusPath(0.5, np.zeros(3), np.zeros(1, dtype=bool))


def test_rng_stream_compares_without_its_generator():
    stream = RngStream(1, 2)
    assert repr(stream) == "RngStream(root_seed=1, stream_id=2, position=0)"
    assert stream == RngStream(root_seed=1, stream_id=2)
    stream.normals(3)
    assert stream == RngStream(1, 2, 3) and stream != RngStream(1, 2)
    assert repr(stream) == "RngStream(root_seed=1, stream_id=2, position=3)"
    assert (stream == (1, 2, 3)) is False
    with pytest.raises(TypeError, match="unhashable"):
        hash(stream)

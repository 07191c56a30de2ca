"""The check that a record built without its ``__init__`` is the one
``__init__`` would have built.

The snapshot pipeline fills its frozen records' ``__dict__`` directly
(:func:`repro.snapshot.codec.record`); a field left out or misordered
there shows up here, next to the build, instead of as an
``AttributeError`` or a pickle mismatch far from it.
"""

import dataclasses
import pickle


def assert_init_built(obj):
    """``obj`` against the same record built through its ``__init__``:
    equal, every field stored first and in field order (what rides
    beside the fields, such as a remembered view, may follow), and the
    same pickle."""
    cls = type(obj)
    names = [field.name for field in dataclasses.fields(cls)]
    twin = cls(**{name: getattr(obj, name) for name in names})
    assert obj == twin
    assert list(vars(obj))[:len(names)] == names
    assert pickle.dumps(obj) == pickle.dumps(twin)

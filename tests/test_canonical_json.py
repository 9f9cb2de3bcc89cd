"""The indented canonical JSON writer against the stdlib oracle.

:func:`repro.utils.canonical_json` with an ``indent`` writes through
the C encoder one container at a time; its text must equal
``json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=k,
allow_nan=False)`` byte for byte, and it must raise what that call
raises.  The stdlib call is used here only, as the oracle.

:func:`repro.campaign.executor.campaign_rows` parses each store slice
with one ``json.loads``; its rows must equal, key order included, the
rows of a parse per payload.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.campaign.executor import campaign_rows, _identified
from repro.campaign.sync import merge_stores
from repro.utils import canonical_json

from .test_artifact_bytes import SPECS
from .test_golden_digests import SPEC

INDENTS = (0, 1, 2, 4)

#: Text that looks like JSON structure, escapes or separators once
#: encoded, plus a raw newline and non-ASCII text.
HOSTILE = ['"', "\\", ",", ":", "[", "]", "{", "}", "\x00", "\\u0000",
           "\n", ",\n  ", '": ', "0", "é", "𝄞", '", "a": 0']

texts = st.one_of(
    st.sampled_from(HOSTILE),
    st.lists(st.sampled_from(HOSTILE + ["a", " ", "b"]), max_size=5).map(
        "".join),
    st.text(max_size=6),
)
numbers = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-300, 2.0**70, 5e-324, 1e16]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, texts)


def _dicts(children):
    """Dicts whose keys json sorts: all text, all numbers (bool, int and
    float compare with each other), or one ``None`` key."""
    return st.one_of(
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(st.one_of(st.booleans(), numbers), children,
                        max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    )


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        _dicts(children),
    )


documents = st.recursive(scalars, _containers, max_leaves=30)


@st.composite
def deep_documents(draw, min_depth=6):
    """A document nested at least ``min_depth`` containers deep."""
    doc = draw(documents)
    for _ in range(min_depth):
        doc = draw(st.one_of(
            st.lists(documents, max_size=2).map(lambda xs, d=doc: [*xs, d]),
            st.builds(lambda k, sib, d=doc: {k: d, k + "~": sib},
                      texts, documents),
        ))
    return doc


def oracle(obj, indent):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "),
                      indent=indent, allow_nan=False)


def oracle_error(obj, indent):
    with pytest.raises(Exception) as info:
        oracle(obj, indent)
    return info.type


class TestIndentedBytes:
    @settings(max_examples=400, deadline=None)
    @given(obj=documents, indent=st.sampled_from(INDENTS))
    def test_equals_stdlib(self, obj, indent):
        assert canonical_json(obj, indent=indent) == oracle(obj, indent)

    @settings(max_examples=100, deadline=None)
    @given(obj=deep_documents(), indent=st.sampled_from(INDENTS))
    def test_deep_nesting_equals_stdlib(self, obj, indent):
        assert canonical_json(obj, indent=indent) == oracle(obj, indent)

    @settings(max_examples=100, deadline=None)
    @given(obj=documents)
    def test_compact_path_is_json_dumps(self, obj):
        assert canonical_json(obj) == json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False)

    @pytest.mark.parametrize("indent", INDENTS)
    @pytest.mark.parametrize("obj", [
        {}, [], (), 0, "x", None, 2**65, -0.0,
        {"a": {}, "b": [], "c": ()},
        [[], {}, [[]], [{}], {"": []}],
        # a nested text holding a line that looks like a later key's
        {"a": {"b\": 0,\n\"c": 0}, "b": [1], "c": {"d": 2}},
        {"a": ["\n\"b\": 0"], "b": {"x": [0]}},
        # an earlier key whose encoding holds a later key's line head
        {'a"b': 1, "b": [1]},
        {'a"b': [2], "b": {"c": [3]}},
        # nested values under non-text keys (json converts the keys)
        {1: [1], 2.5: {"x": 1}, True: [2]},
        {None: [{"k": [1, 2]}]},
        OrderedDict([("z", [1]), ("a", {"q": 1})]),
        namedtuple("P", "x y")([1, 2], {"a": 3}),
    ], ids=repr)
    def test_edge_cases_equal_stdlib(self, obj, indent):
        assert canonical_json(obj, indent=indent) == oracle(obj, indent)

    def test_shared_subtree_is_not_a_cycle(self):
        shared = {"x": [1, [2]]}
        obj = {"a": shared, "b": [shared, shared]}
        assert canonical_json(obj, indent=2) == oracle(obj, 2)


def _bad_values():
    class Opaque:
        pass

    yield "nan", math.nan
    yield "inf", math.inf
    yield "-inf", -math.inf
    yield "object", Opaque()
    yield "set", {1, 2}
    yield "nan-key", {math.nan: 1}
    yield "tuple-key", {(1, 2): 1}
    yield "mixed-keys", {1: 0, "a": 0}
    yield "mixed-keys-nested", {None: [1], 0: [2]}


class TestIndentedErrors:
    @settings(max_examples=150, deadline=None)
    @given(obj=documents, indent=st.sampled_from(INDENTS),
           bad=st.sampled_from([name for name, _ in _bad_values()]),
           depth=st.integers(0, 6), where=st.sampled_from(["list", "dict"]))
    def test_raises_like_stdlib(self, obj, indent, bad, depth, where):
        value = dict(_bad_values())[bad]
        doc = value
        for level in range(depth):
            doc = ([obj, doc] if where == "list"
                   else {"k": obj, "z" * (level + 1): doc})
        expected = oracle_error(doc, indent)
        with pytest.raises(expected):
            canonical_json(doc, indent=indent)

    @pytest.mark.parametrize("indent", INDENTS)
    def test_cycle_across_levels(self, indent):
        inner: list = [1, {"x": 2}]
        outer = {"a": [{"b": inner}], "c": 3}
        inner.append(outer)
        assert oracle_error(outer, indent) is ValueError
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_json(outer, indent=indent)

    def test_self_reference(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_json(loop, indent=2)


# ----------------------------------------------------------------------
# campaign rows: one parse per store slice
# ----------------------------------------------------------------------
MULTI = SPECS["multi"]


def _per_payload_rows(spec, store):
    """The rows of a ``json.loads`` per stored payload."""
    rows = []
    for pt, digest in _identified(spec, store):
        text = store.payload_text(digest)
        if text is None:
            continue
        row = {
            "point": pt.index, "application": pt.application.label,
            "platform": pt.platform.label,
            "replication": pt.replication.label, "model": pt.model,
            "draw": pt.draw, "seed": pt.seed, "digest": digest,
        }
        row.update(
            ("replication_counts" if k == "replication" else k, v)
            for k, v in json.loads(text).items()
            if k not in ("schema", "model"))
        rows.append(row)
    return rows


def _assert_rows_match(spec, store):
    rows, missing = campaign_rows(spec, store)
    expected = _per_payload_rows(spec, store)
    assert rows == expected
    assert [list(row) for row in rows] == [list(row) for row in expected]
    stored = {row["point"] for row in rows}
    assert [pt.index for pt in missing] == [
        pt.index for pt in spec.expand() if pt.index not in stored]
    return rows, missing


class TestCampaignRows:
    @pytest.mark.parametrize("data", [SPEC, MULTI], ids=["period", "multi"])
    @pytest.mark.parametrize("max_points", [None, 0, 7])
    def test_rows_equal_per_payload_parse(self, data, max_points):
        spec = CampaignSpec.from_dict(data)
        with ResultStore(":memory:") as store:
            run_campaign(spec, store, max_points=max_points)
            rows, missing = _assert_rows_match(spec, store)
        assert len(rows) + len(missing) == len(spec.expand())

    def test_synced_payload_with_extra_nested_keys(self, tmp_path):
        spec = CampaignSpec.from_dict(MULTI)
        with ResultStore(tmp_path / "dst.sqlite") as dst, \
                ResultStore(":memory:") as src:
            run_campaign(spec, dst, max_points=5)
            _, missing = campaign_rows(spec, dst)
            run_campaign(spec, src)
            digest = next(d for pt, d in _identified(spec, src)
                          if pt.index == missing[0].index)
            payload = json.loads(src.payload_text(digest))
            payload["extra"] = {"nested": [1, {"b": [], "a": "\n"}],
                                "z": None}
            payload["aaa"] = [[0.5], {}]
            with ResultStore(":memory:") as synced:
                synced.put_text(digest, canonical_json(payload))
                assert merge_stores(dst, synced).merged == 1
            rows, _ = _assert_rows_match(spec, dst)
        row = next(row for row in rows if row["digest"] == digest)
        assert row["extra"] == payload["extra"]
        assert list(row)[8:10] == ["aaa", "critical"]

    def test_rows_span_several_slices(self, monkeypatch):
        from repro.campaign import store as store_module

        monkeypatch.setattr(store_module, "_IN_CHUNK", 4)
        spec = CampaignSpec.from_dict(SPEC)
        with ResultStore(":memory:") as store:
            run_campaign(spec, store, max_points=9)
            _assert_rows_match(spec, store)

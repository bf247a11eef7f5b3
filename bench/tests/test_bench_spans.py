import gzip
import types

import pytest

import spans


def test_self_times_on_hand_built_tree():
    # op 0:  a [0, 10]
    #          b [1, 4]      c [5, 9]
    #            d [2, 3]      e [6, 7]  f [6.5, 8] (overlaps e)
    tree = [
        ["x.a", 0.0, 10.0, -1, 0],
        ["y.b", 1.0, 4.0, 0, 0],
        ["z.d", 2.0, 3.0, 1, 0],
        ["y.c", 5.0, 9.0, 0, 0],
        ["z.e", 6.0, 7.0, 3, 0],
        ["z.f", 6.5, 8.0, 3, 0],
        ["x.g", 11.0, 12.5, -1, 1],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5, 1.5])
    totals = spans.per_op_totals(tree)
    assert totals[0]["y.self_s"] == pytest.approx(4.0)
    assert totals[0]["z.calls"] == 3
    assert totals[0]["top.s"] == pytest.approx(10.0)
    assert totals[1]["x.self_s"] == pytest.approx(1.5)
    assert "y.calls" not in totals[1]


class Table:
    @classmethod
    def load(cls, x):
        return cls, x

    def size(self):
        return 3


def test_recorder_wraps_records_and_restores(tmp_path):
    mod = types.ModuleType("fake")

    def outer(n):
        return [mod.inner(i) for i in range(n)]

    mod.inner = lambda i: i * 2
    mod.outer = outer
    raw_inner, raw_load, raw_size = mod.inner, vars(Table)["load"], vars(Table)["size"]
    rec = spans.SpanRecorder()
    with rec:
        rec.wrap(mod, "outer", "fake.outer", lambda r: {"fake.items": len(r)})
        rec.wrap(mod, "inner", "fake.inner")
        rec.wrap(Table, "load", "fake.Table.load")
        rec.wrap(Table, "size", "fake.Table.size")
        rec.op = 7
        assert mod.outer(3) == [0, 2, 4]
        assert Table.load(1) == (Table, 1)
        assert Table().size() == 3
    assert mod.inner is raw_inner and vars(Table)["load"] is raw_load and vars(Table)["size"] is raw_size
    names = [s[spans.NAME] for s in rec.spans]
    assert names == ["fake.outer", "fake.inner", "fake.inner", "fake.inner", "fake.Table.load", "fake.Table.size"]
    assert [s[spans.PARENT] for s in rec.spans] == [-1, 0, 0, 0, -1, -1]
    assert all(s[spans.OP] == 7 and s[spans.END] >= s[spans.START] for s in rec.spans)
    assert rec.counts[(7, "fake.items")] == 3
    rec.write(tmp_path / "s.csv.gz")
    lines = gzip.open(tmp_path / "s.csv.gz", "rt").read().splitlines()
    assert lines[0] == "index,name,start,end,parent,op" and len(lines) == 7


def test_span_closes_when_call_raises():
    mod = types.ModuleType("fake")

    def boom():
        raise RuntimeError("x")

    mod.boom = boom
    with spans.SpanRecorder() as rec:
        rec.wrap(mod, "boom", "fake.boom")
        with pytest.raises(RuntimeError):
            mod.boom()
    assert rec.spans[0][spans.END] >= rec.spans[0][spans.START] > 0 and mod.boom is boom

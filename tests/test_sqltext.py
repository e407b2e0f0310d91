"""SQL text the operators render: identifiers and computed numbers.

Every expression written as SQL text must mean what its Column form meant,
so an identifier must name its column whatever it contains, and a number
must parse back to the same double bit for bit: a bucket bound that moved
by one ulp would prune a violating pair at a boundary tie.
"""
import math
import struct

import pytest
from pyspark.sql import functions as F

from repro.core.sqltext import ident, name_lit, num

DOUBLES = [
    0.1, 1 / 3, 16385.000000000004, 5e-324, -0.0, float(2**53 + 1), -2.5e300,
    math.inf, -math.inf,
]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestIdentifiers:
    NAME = "a b.c`d"

    def test_quoting(self):
        assert ident(self.NAME) == "`a b.c``d`"

    def test_round_trip(self, spark):
        df = spark.createDataFrame([(7,)], "x long").withColumnRenamed("x", self.NAME)
        row = df.select(F.expr(ident(self.NAME)).alias("v")).first()
        assert row["v"] == 7
        renamed = df.selectExpr(f"{ident(self.NAME)} AS {ident(self.NAME + '2')}")
        assert renamed.columns == [self.NAME + "2"]

    def test_name_literal(self, spark):
        name = "it's a \\ name"
        assert spark.range(1).select(F.expr(name_lit(name))).first()[0] == name


class TestNumbers:
    def test_doubles_round_trip_bit_for_bit(self, spark):
        row = spark.range(1).selectExpr(*(f"{num(x)} AS d{i}" for i, x in enumerate(DOUBLES))).first()
        for i, x in enumerate(DOUBLES):
            got = row[f"d{i}"]
            assert isinstance(got, float) and _bits(got) == _bits(x), (x, got)
        assert math.copysign(1.0, row["d4"]) == -1.0

    def test_each_through_expr(self, spark):
        for x in DOUBLES:
            got = spark.range(1).select(F.expr(num(x))).first()[0]
            assert _bits(got) == _bits(x), (x, got)

    def test_nan(self, spark):
        assert math.isnan(spark.range(1).select(F.expr(num(math.nan))).first()[0])

    def test_negative_is_one_operand(self, spark):
        # 1 - -0.5 and 2 * -3 parse as the arithmetic they read as
        row = spark.range(1).selectExpr(f"1.0D - {num(-0.5)} AS a", f"2 * {num(-3)} AS b").first()
        assert row["a"] == 1.5 and row["b"] == -6

    def test_integers(self, spark):
        row = spark.range(1).selectExpr(f"{num(3)} AS i", f"{num(2**40)} AS l").first()
        assert row["i"] == 3 and row["l"] == 2**40

    @pytest.mark.parametrize("bad", [True, "1", None])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(TypeError):
            num(bad)

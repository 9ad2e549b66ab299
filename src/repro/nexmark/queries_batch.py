"""NEXMark queries as Catalyst DataFrame programs, with oracle SQL.

Every query comes in two halves that must agree row-for-row:

* a function building the result with the Spark DataFrame API (these
  are the *semantics reference* for the streaming and Jet-engine
  versions), and
* a ``*_SQL`` statement (or builder) that expresses the same query in
  portable SQL for DuckDB, consumed by ``repro.oracle.assert_equivalent``.

Windows are epoch-aligned on ``ts_ms`` (milliseconds), computed
arithmetically — ``(ts_ms / slide) * slide`` — on both sides, so the
comparison never depends on timezone or timestamp-type semantics.

The paper evaluates Q1, Q2, Q5, Q8 and Q13 (§7.1); those five are the
queries implemented here.
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .schema import USD_TO_EUR

# --------------------------------------------------------------------------
# Q1 — currency conversion (map)
# --------------------------------------------------------------------------


def q1(bids: DataFrame) -> DataFrame:
    """Convert each bid's price from dollars to euros (stateless map)."""
    return bids.select(
        "auction",
        "bidder",
        F.round(F.col("price") * F.lit(USD_TO_EUR), 2).alias("price_eur"),
        "ts_ms",
    )


Q1_SQL = f"""
SELECT auction, bidder, ROUND(price * {USD_TO_EUR}, 2) AS price_eur, ts_ms
FROM bids
"""

# --------------------------------------------------------------------------
# Q2 — selection (filter)
# --------------------------------------------------------------------------

#: Beam's Q2 keeps bids whose auction id is divisible by this modulus.
Q2_MOD = 123


def q2(bids: DataFrame) -> DataFrame:
    """Select bids on auctions whose id is divisible by ``Q2_MOD``."""
    return bids.filter(F.col("auction") % Q2_MOD == 0).select("auction", "price")


Q2_SQL = f"SELECT auction, price FROM bids WHERE auction % {Q2_MOD} = 0"

# --------------------------------------------------------------------------
# Sliding-window helper shared by Q5 (and the Jet engine tests)
# --------------------------------------------------------------------------


def with_sliding_windows(df: DataFrame, *, size_ms: int, slide_ms: int) -> DataFrame:
    """Explode each row into every sliding window containing its ``ts_ms``.

    Windows are epoch-aligned: starts are the multiples of ``slide_ms``.
    Adds a ``window_start`` column; one output row per (row, window).
    """
    n = (size_ms + slide_ms - 1) // slide_ms
    last_start = (F.col("ts_ms") / slide_ms).cast("long") * slide_ms
    starts = F.sequence(
        last_start - (n - 1) * slide_ms, last_start, F.lit(slide_ms)
    )
    return df.withColumn("window_start", F.explode(starts)).filter(
        (F.col("ts_ms") >= F.col("window_start"))
        & (F.col("ts_ms") < F.col("window_start") + size_ms)
    )


def _sliding_sql(size_ms: int, slide_ms: int) -> str:
    # Constant-range series cross join (DuckDB 1.0 rejects lateral
    # column parameters to generate_series).
    n = (size_ms + slide_ms - 1) // slide_ms
    return f"""
  SELECT b.*,
         (b.ts_ms // {slide_ms}) * {slide_ms} - i.generate_series * {slide_ms}
           AS window_start
  FROM bids b CROSS JOIN generate_series(0, {n - 1}) i
  WHERE b.ts_ms >= (b.ts_ms // {slide_ms}) * {slide_ms} - i.generate_series * {slide_ms}
    AND b.ts_ms <  (b.ts_ms // {slide_ms}) * {slide_ms} - i.generate_series * {slide_ms} + {size_ms}
"""

# --------------------------------------------------------------------------
# Q5 — hot items (sliding-window count + per-window max)
# --------------------------------------------------------------------------


def q5(bids: DataFrame, *, size_ms: int = 10_000, slide_ms: int = 2_000) -> DataFrame:
    """Auctions with the most bids per sliding window (ties included).

    Paper default is a 10 s window sliding every 10 ms; batch tests use
    a coarser slide so the exploded-window row count stays small.
    """
    counts = (
        with_sliding_windows(bids, size_ms=size_ms, slide_ms=slide_ms)
        .groupBy("window_start", "auction")
        .agg(F.count(F.lit(1)).alias("n_bids"))
    )
    return hot_items_of(counts)


def hot_items_of(counts: DataFrame) -> DataFrame:
    """Finish Q5 on a counts frame: the max-count auctions per window."""
    m = counts.groupBy("window_start").agg(F.max("n_bids").alias("max_bids"))
    return (
        counts.join(m, "window_start")
        .filter(F.col("n_bids") == F.col("max_bids"))
        .select("window_start", "auction", "n_bids")
    )


def q5_sql(*, size_ms: int = 10_000, slide_ms: int = 2_000) -> str:
    """DuckDB SQL equivalent of :func:`q5` at the same window geometry."""
    return f"""
WITH exploded AS ({_sliding_sql(size_ms, slide_ms)}),
counts AS (
  SELECT window_start, auction, COUNT(*) AS n_bids
  FROM exploded GROUP BY window_start, auction
)
SELECT c.window_start, c.auction, c.n_bids
FROM counts c
JOIN (SELECT window_start, MAX(n_bids) AS max_bids
      FROM counts GROUP BY window_start) m
  ON c.window_start = m.window_start AND c.n_bids = m.max_bids
"""

# --------------------------------------------------------------------------
# Q8 — monitor new users (windowed stream-stream join)
# --------------------------------------------------------------------------


def q8(persons: DataFrame, auctions: DataFrame, *, size_ms: int = 10_000) -> DataFrame:
    """Persons who created an auction in the same tumbling window as
    their own registration (id = seller, same window)."""
    p = persons.select(
        "id", "name", ((F.col("ts_ms") / size_ms).cast("long") * size_ms).alias("window_start")
    ).distinct()
    a = auctions.select(
        F.col("seller"),
        ((F.col("ts_ms") / size_ms).cast("long") * size_ms).alias("window_start"),
    ).distinct()
    return p.join(
        a, (p["id"] == a["seller"]) & (p["window_start"] == a["window_start"])
    ).select(p["id"], p["name"], p["window_start"])


def q8_sql(*, size_ms: int = 10_000) -> str:
    """DuckDB SQL equivalent of :func:`q8`."""
    return f"""
WITH p AS (
  SELECT DISTINCT id, name, (ts_ms // {size_ms}) * {size_ms} AS window_start FROM persons
),
a AS (
  SELECT DISTINCT seller, (ts_ms // {size_ms}) * {size_ms} AS window_start FROM auctions
)
SELECT p.id, p.name, p.window_start
FROM p JOIN a ON p.id = a.seller AND p.window_start = a.window_start
"""

# --------------------------------------------------------------------------
# Q13 — bounded side-input join
# --------------------------------------------------------------------------


def q13(bids: DataFrame, side: DataFrame, *, side_size: int) -> DataFrame:
    """Enrich each bid with a static side-input row keyed by
    ``auction % side_size`` (Beam's bounded side-input join)."""
    keyed = bids.withColumn("key", F.col("auction") % side_size)
    return keyed.join(side, "key").select("auction", "bidder", "price", "ts_ms", "value")


def q13_sql(*, side_size: int) -> str:
    """DuckDB SQL equivalent of :func:`q13`."""
    return f"""
SELECT b.auction, b.bidder, b.price, b.ts_ms, s.value
FROM bids b JOIN side s ON b.auction % {side_size} = s.key
"""

"""NEXMark event schemas.

The paper evaluates NEXMark queries "as described in the Apache Beam
project" (§7.1). We mirror Beam's three event kinds — Person, Auction,
Bid — with Beam's fields, of which the evaluated queries (Q1, Q2, Q5,
Q8, Q13) read only some, plus event-time/processing-time columns used
for watermarking and the paper's latency-clock methodology. The
generator fills every field, so its RNG draw order, and with it every
generated frame, stays fixed.

Timestamps are ``long`` epoch-milliseconds (``*_ms``) everywhere: the
engine, oracle SQL and Structured Streaming queries all agree on this
representation, avoiding timezone pitfalls in cross-system comparison.
"""
from pyspark.sql.types import (
    DoubleType,
    LongType,
    StringType,
    StructField,
    StructType,
)

#: Beam's NEXMark generator emits events in this proportion.
PERSON_PROPORTION = 1
AUCTION_PROPORTION = 3
BID_PROPORTION = 46
TOTAL_PROPORTION = PERSON_PROPORTION + AUCTION_PROPORTION + BID_PROPORTION

#: Paper §7.1: "10 thousand distinct keys that correspond to persons and
#: auctions in the input dataset".
DEFAULT_N_KEYS = 10_000

#: Q1's fixed dollar->euro rate (Beam's NEXMark uses 0.908).
USD_TO_EUR = 0.908

PERSON_SCHEMA = StructType(
    [
        StructField("id", LongType(), False),
        StructField("name", StringType(), False),
        StructField("email", StringType(), False),
        StructField("city", StringType(), False),
        StructField("state", StringType(), False),
        StructField("ts_ms", LongType(), False),  # event time
        StructField("arrival_ms", LongType(), False),  # processing time
    ]
)

AUCTION_SCHEMA = StructType(
    [
        StructField("id", LongType(), False),
        StructField("item_name", StringType(), False),
        StructField("initial_bid", LongType(), False),
        StructField("reserve", LongType(), False),
        StructField("expires_ms", LongType(), False),
        StructField("seller", LongType(), False),
        StructField("category", LongType(), False),
        StructField("ts_ms", LongType(), False),
        StructField("arrival_ms", LongType(), False),
    ]
)

BID_SCHEMA = StructType(
    [
        StructField("auction", LongType(), False),
        StructField("bidder", LongType(), False),
        StructField("price", DoubleType(), False),
        StructField("ts_ms", LongType(), False),
        StructField("arrival_ms", LongType(), False),
    ]
)

ALL_STATES = ("OR", "ID", "CA", "NY", "WA", "TX", "FL", "MA")
CITIES = ("Portland", "Boise", "SF", "NYC", "Seattle", "Austin", "Miami", "Boston")

#: Auction categories span [0, N_CATEGORIES).
N_CATEGORIES = 25

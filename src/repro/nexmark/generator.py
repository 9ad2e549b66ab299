"""Deterministic NEXMark data generator.

Replaces Beam's ``NexmarkGenerator`` (which we cannot download) with a
numpy implementation that preserves the properties the paper's
experiments depend on:

* events arrive at a fixed configurable rate (paper: 1 M ev/s),
* Beam's 1:3:46 person/auction/bid mix,
* 10 K distinct person/auction keys drawn uniformly (paper §7.1),
* deterministic in ``seed`` so the DuckDB oracle sees identical input,
* optional bounded out-of-orderness (``arrival_ms`` lags ``ts_ms`` by a
  uniform delay) to exercise watermarking.

All generators return pandas DataFrames; ``to_spark`` lifts them to
Spark with explicit schemas so column types are stable across the
engine, Structured Streaming and DuckDB.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from . import schema as S

#: Epoch base for all generated event times (arbitrary but fixed).
T0_MS = 1_600_000_000_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@dataclass
class NexmarkData:
    """One generated NEXMark stream, split by event kind.

    ``persons``/``auctions``/``bids`` are pandas frames matching the
    schemas in :mod:`repro.nexmark.schema`. Within each frame rows are
    ordered by event time (``ts_ms``); ``arrival_ms`` may be out of
    order when the generator was asked for out-of-orderness.
    """

    persons: pd.DataFrame
    auctions: pd.DataFrame
    bids: pd.DataFrame

    @property
    def n_events(self) -> int:
        return len(self.persons) + len(self.auctions) + len(self.bids)


def generate(
    *,
    rate: float = 100_000,
    duration_s: float = 1.0,
    n_keys: int = S.DEFAULT_N_KEYS,
    seed: int = 42,
    ooo_max_delay_ms: int = 0,
    t0_ms: int = T0_MS,
) -> NexmarkData:
    """Generate a NEXMark stream of ``rate * duration_s`` events.

    Event *i* occurs at ``t0_ms + i / rate`` seconds (deterministic
    inter-arrival, like Beam's generator), floored to a whole
    millisecond for any rate, integral or not; its kind follows Beam's
    repeating 1-person / 3-auction / 46-bid pattern per 50 events.
    """
    n = max(1, int(rate * duration_s))
    g = _rng(seed)
    idx = np.arange(n, dtype=np.int64)
    # a float rate gives a float quotient; on int64 the cast is a no-op
    ts = t0_ms + ((idx * 1000) // rate).astype(np.int64, copy=False)
    slot = idx % S.TOTAL_PROPORTION
    is_person = slot < S.PERSON_PROPORTION
    is_auction = (slot >= S.PERSON_PROPORTION) & (
        slot < S.PERSON_PROPORTION + S.AUCTION_PROPORTION
    )
    is_bid = ~is_person & ~is_auction
    delay = (
        g.integers(0, ooo_max_delay_ms + 1, n) if ooo_max_delay_ms > 0 else np.zeros(n, np.int64)
    )
    arrival = ts + delay

    # Persons: ids cycle over the key space so exactly n_keys distinct
    # keys exist regardless of stream length.
    p_idx = np.nonzero(is_person)[0]
    np_p = len(p_idx)
    p_id = np.arange(np_p, dtype=np.int64) % n_keys
    state = np.asarray(S.ALL_STATES)[g.integers(0, len(S.ALL_STATES), np_p)]
    city = np.asarray(S.CITIES)[g.integers(0, len(S.CITIES), np_p)]
    persons = pd.DataFrame(
        {
            "id": p_id,
            "name": np.char.add("person-", p_id.astype(str)),
            "email": np.char.add(p_id.astype(str), "@example.com"),
            "city": city,
            "state": state,
            "ts_ms": ts[p_idx],
            "arrival_ms": arrival[p_idx],
        }
    )

    a_idx = np.nonzero(is_auction)[0]
    na = len(a_idx)
    a_id = np.arange(na, dtype=np.int64) % n_keys
    initial_bid = g.integers(1, 1000, na)
    auctions = pd.DataFrame(
        {
            "id": a_id,
            "item_name": np.char.add("item-", a_id.astype(str)),
            "initial_bid": initial_bid,
            "reserve": initial_bid + g.integers(0, 1000, na),
            "expires_ms": ts[a_idx] + g.integers(1_000, 20_000, na),
            "seller": g.integers(0, n_keys, na),
            "category": g.integers(0, S.N_CATEGORIES, na),
            "ts_ms": ts[a_idx],
            "arrival_ms": arrival[a_idx],
        }
    )

    b_idx = np.nonzero(is_bid)[0]
    nb = len(b_idx)
    bids = pd.DataFrame(
        {
            "auction": g.integers(0, n_keys, nb),
            "bidder": g.integers(0, n_keys, nb),
            "price": (g.random(nb) * 10_000 + 1).round(2),
            "ts_ms": ts[b_idx],
            "arrival_ms": arrival[b_idx],
        }
    )
    return NexmarkData(persons=persons, auctions=auctions, bids=bids)


def side_input(n_keys: int = 500, *, seed: int = 7) -> pd.DataFrame:
    """Q13's bounded side input: a small static (key, value) table."""
    g = _rng(seed)
    keys = np.arange(n_keys, dtype=np.int64)
    return pd.DataFrame(
        {"key": keys, "value": np.char.add("desc-", g.integers(0, 1000, n_keys).astype(str))}
    )


def to_spark(spark: SparkSession, data: NexmarkData) -> dict[str, DataFrame]:
    """Lift a generated stream to Spark DataFrames with explicit schemas."""
    return {
        "persons": spark.createDataFrame(data.persons, schema=S.PERSON_SCHEMA),
        "auctions": spark.createDataFrame(data.auctions, schema=S.AUCTION_SCHEMA),
        "bids": spark.createDataFrame(data.bids, schema=S.BID_SCHEMA),
    }

"""NEXMark queries as Spark Structured Streaming jobs.

This is the ``repro_why`` mapping of the paper onto Spark: out-of-order
streams handled with **event-time watermarks**, sliding windows with
``window()``, stream-stream joins with watermarked state cleanup, and
exactly-once output via checkpointed replayable file sources plus the
idempotent/transactional sinks in :mod:`repro.sinks.exactly_once`.

All queries take *streaming* DataFrames (``spark.readStream`` over a
chunked parquet directory, see :mod:`repro.sinks.replayable`) and
return streaming DataFrames; helpers at the bottom run them to
completion deterministically for tests. Only the queries that need
streaming constructs (watermarks, windowed state) live here: the
stateless Q1 and Q2 and the side-input join Q13 of
:mod:`repro.nexmark.queries_batch` take streaming frames unchanged.
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

def read_stream(
    spark: SparkSession, input_dir: str, schema, *, max_files_per_trigger: int = 1
) -> DataFrame:
    """Stream a chunked parquet directory, one chunk per micro-batch —
    the replayable-source half of the exactly-once contract."""
    return (
        spark.readStream.schema(schema)
        .option("maxFilesPerTrigger", max_files_per_trigger)
        .parquet(input_dir)
    )


def q5_counts_stream(
    bids: DataFrame, *, size_ms: int, slide_ms: int, watermark_ms: int
) -> DataFrame:
    """Q5 streaming core: per-(window, auction) bid counts over a
    sliding event-time window, emitted in append mode once the
    watermark passes the window end (the finalize-on-watermark
    behaviour of Jet's combiner stage).

    The global per-window max (Jet's stage 3) is not expressible as a
    second streaming aggregation in append mode; consumers apply it per
    emitted window (see :func:`repro.nexmark.queries_batch.hot_items_of`).
    """
    with_ts = bids.withColumn("ts", F.timestamp_millis(F.col("ts_ms")))
    return (
        with_ts.withWatermark("ts", f"{watermark_ms} milliseconds")
        .groupBy(
            F.window("ts", f"{size_ms} milliseconds", f"{slide_ms} milliseconds"),
            "auction",
        )
        .agg(F.count(F.lit(1)).alias("n_bids"))
        .select(
            F.unix_millis(F.col("window.start")).alias("window_start"),
            "auction",
            "n_bids",
        )
    )


def q8_stream(
    persons: DataFrame, auctions: DataFrame, *, size_ms: int, watermark_ms: int
) -> DataFrame:
    """Q8 streaming: windowed stream-stream join of new persons with
    their new auctions (watermarks bound the join state on both sides)."""
    p = (
        persons.withColumn("ts", F.timestamp_millis(F.col("ts_ms")))
        .withWatermark("ts", f"{watermark_ms} milliseconds")
        .select(
            "id", "name", F.window("ts", f"{size_ms} milliseconds").alias("w")
        )
    )
    a = (
        auctions.withColumn("ts", F.timestamp_millis(F.col("ts_ms")))
        .withWatermark("ts", f"{watermark_ms} milliseconds")
        .select("seller", F.window("ts", f"{size_ms} milliseconds").alias("w2"))
    )
    joined = p.join(
        a, (p["id"] == a["seller"]) & (p["w"] == a["w2"])
    ).select(
        "id", "name", F.unix_millis(F.col("w.start")).alias("window_start")
    )
    return joined.dropDuplicates(["id", "name", "window_start"])


# -- deterministic execution helpers ------------------------------------


def run_to_memory(
    spark: SparkSession, sdf: DataFrame, name: str, *, checkpoint_dir: str | None = None
) -> DataFrame:
    """Run a streaming frame until all available input is processed,
    collecting append-mode output into an in-memory table."""
    writer = sdf.writeStream.format("memory").queryName(name).outputMode("append")
    if checkpoint_dir:
        writer = writer.option("checkpointLocation", checkpoint_dir)
    q = writer.start()
    q.processAllAvailable()
    q.stop()
    return spark.table(name)


def run_foreach_batch(
    sdf: DataFrame, sink, *, checkpoint_dir: str
) -> None:
    """Run a streaming frame through a ``foreachBatch`` sink with a
    checkpoint (replayable offsets + exactly-once with our sinks)."""
    q = (
        sdf.writeStream.foreachBatch(sink)
        .option("checkpointLocation", checkpoint_dir)
        .outputMode("append")
        .start()
    )
    q.processAllAvailable()
    q.stop()

"""A local Spark session that keeps every file inside the work
directory and whose JVM is stopped and waited for on exit."""
import os
import sys

#: Local cores for Spark tasks; the workloads are sized for two.
SPARK_CORES = 2


def start(work_dir: str, src_dir: str):
    """Launch the JVM and return a configured ``SparkSession``."""
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Python workers import repro from the same source tree as this process
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={tmp} "
        f"--conf spark.sql.warehouse.dir={os.path.join(work_dir, 'warehouse')} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SPARK_CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session, then close the gateway's stdin so the JVM
    exits, and wait for it (killing it if it hangs)."""
    from pyspark import SparkContext

    try:
        spark.stop()
    finally:
        gw = SparkContext._gateway
        proc = getattr(gw, "proc", None) if gw is not None else None
        if gw is not None:
            gw.shutdown()
        if proc is not None:
            try:
                proc.stdin.close()
                proc.wait(timeout=60)
            except Exception:
                proc.kill()
                proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None

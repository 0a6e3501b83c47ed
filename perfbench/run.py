#!/usr/bin/env python3
"""Build and run the rows-to-edges benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload climate-build --seed 1 --seconds 8 --trace 0

The first call compiles the program's sources together with the benchmark
(sbt, offline) into .bench_build/perfbench and records the classpath; later
calls reuse it until a source file changes. Each run is one JVM on every
core. Its last line of standard output is the JSON result.
"""
import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
CLASSPATH_FILE = os.path.join(OUT, "classpath.txt")
DIGEST_FILE = os.path.join(OUT, "source-digest.txt")

# A run must end well inside three minutes; the build gets fifteen.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

HEAP = "3g"
JVM_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Hash of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    roots = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project"),
             os.path.join(HERE, "src", "main"), PROGRAM_SOURCES]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs
            if f.endswith((".scala", ".sbt", ".properties")) and "target" not in d.split(os.sep))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_child(cmd, cwd, env, timeout, stdout):
    """Run ``cmd`` in its own process group; kill the group on timeout or
    interrupt and wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def spark_home():
    """SPARK_HOME, or else the first Spark distribution (a directory with
    jars/spark-core_2.13-*.jar) whose bin/spark-submit is on the PATH."""
    def has_jars(home):
        return bool(glob.glob(os.path.join(home, "jars", "spark-core_2.13-*.jar")))
    if os.environ.get("SPARK_HOME"):
        if not has_jars(os.environ["SPARK_HOME"]):
            fail(f"SPARK_HOME={os.environ['SPARK_HOME']} holds no Spark jars")
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        if os.path.isfile(submit):
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
            if has_jars(home):
                return home
    fail("set SPARK_HOME to a Spark 4 distribution")


def build(digest):
    if shutil.which("sbt") is None:
        fail("sbt not found on PATH")
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env["COURSIER_MODE"] = "offline"
    opts = ["-Dsbt.offline=true", "-Dsbt.server.autostart=false", "-Xmx2g"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    listing = os.path.join(OUT, "sbt-export.txt")
    with open(listing, "w") as f:
        code = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                          "export Runtime/fullClasspath"], HERE, env, BUILD_TIMEOUT_S, f)
    with open(listing) as f:
        lines = [l.strip() for l in f if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write("".join(l + "\n" for l in lines[-40:]))
        fail(f"build failed (sbt exit code {code})", 1)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(lines[-1])
    with open(DIGEST_FILE, "w") as f:
        f.write(digest)


def main():
    if not os.path.isfile(os.path.join(PROGRAM_SOURCES, "repro", "core", "Dangoron.scala")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SOURCES, os.getcwd())}; "
             "run from a full checkout of the repository")
    digest = source_digest()
    built = os.path.isfile(CLASSPATH_FILE) and os.path.isfile(DIGEST_FILE) \
        and open(DIGEST_FILE).read() == digest
    if not built:
        build(digest)
    classpath = open(CLASSPATH_FILE).read().strip()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JVM_OPENS] + [
        "-Djdk.reflect.useDirectMethodHandle=false",
        # A fixed heap and the throughput collector keep heap sizing and
        # collector pauses alike from run to run.
        f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC",
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
        f"-Dperfbench.out={OUT}",
        f"-Dperfbench.gitSha={git_sha()}",
        f"-Dperfbench.sourceDigest={digest}",
        "-cp", classpath, "perfbench.Main"] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(run_child(cmd, ROOT, dict(os.environ), RUN_TIMEOUT_S, None))


if __name__ == "__main__":
    main()

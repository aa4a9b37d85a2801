#!/usr/bin/env bash
# Build file of the ADCMiner benchmark: compiles the miner's sources
# (src/main/scala) together with the benchmark's own (adcbench/src) into one
# class directory. Spark, whose jars also carry the Scala 2.13 compiler, is
# the only dependency.
#
#   SPARK_HOME=<spark> bash adcbench/build.sh <output-dir>   (from the repository root)
set -euo pipefail

out="${1:?usage: build.sh <output-dir>}"
jars="${SPARK_HOME:?set SPARK_HOME to a Spark 4 / Scala 2.13 installation}/jars"
[ -d "$jars" ] || { echo "build.sh: no Spark jars at $jars" >&2; exit 2; }

sources=()
while IFS= read -r -d '' f; do sources+=("$f"); done \
  < <(find src/main/scala adcbench/src -name '*.scala' -print0 | sort -z)

rm -rf "$out"
mkdir -p "$out"
java -Xss8m -Xmx2g -cp "$jars/*" scala.tools.nsc.Main \
  -nowarn -d "$out" -classpath "$jars/*" "${sources[@]}"

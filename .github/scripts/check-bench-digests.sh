#!/usr/bin/env bash
# Run each benchmark workload for one second at seed 1 and fail unless its
# outputs match bench/reference_digests.json. bench/run.py exits 0 on wrong
# outputs, so the "correct" field of its last line decides.
set -euo pipefail
for workload in run_32k keyed_codec_32k adev_512k; do
  python3 bench/run.py --workload "$workload" --seed 1 --seconds 1 | tail -n 1 |
    python3 -c 'import json, sys; sys.exit(json.load(sys.stdin)["correct"] is not True)' ||
    { echo "$workload: outputs differ from bench/reference_digests.json"; exit 1; }
done

#!/usr/bin/env bash
# Same-outputs check: run the CLI over one synthetic corpus with the source
# at git ref REF and with the working tree, then compare the two output trees.
#
#   scripts/same_outputs.sh REF        # e.g. HEAD, HEAD~1, a commit id
#
# Corpus: write_corpus(n_train=20, n_test=8, seed=11, short_every=5) from
# tests/synthetic.py. Config: FD001 defaults with seed 1, an 8/4-unit LSTM,
# L=30 and 3 epochs. Commands: detect --traces, train, evaluate,
# sweep --candidates 100,200, each with --config, and monitor over every train
# row, once with the trained checkpoint and once without one. monitor takes no
# config: it reads only the monitor store and the checkpoint, and a parent that
# still reads one gets the defaults, whose cap the script's config keeps. Every
# artifact and each command's stdout are compared with diff -r; both sides use the same data_dir and a
# relative out_dir, so history.json compares whole. stderr is kept beside each tree but not
# compared, since a warning names the source line that raised it. Then every
# *.json file of the working tree's outputs must parse as strict JSON: no NaN,
# Infinity or -Infinity.
#
# Exits 0 when the trees are identical and strict, 1 when they differ or a JSON
# file is not strict, 2 on a usage error or a failed command. Needs git, python3
# with numpy and scipy, and bash.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
ref=$1
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/ref"
git -C "$root" archive "$ref" | tar -x -C "$work/ref" || exit 2

PYTHONPATH="$root/tests:$root/src" python3 - "$work" <<'EOF' || exit 2
import json
import os
import sys

import numpy as np
from synthetic import write_corpus

work = sys.argv[1]
data_dir = os.path.join(work, "data")
write_corpus(data_dir, n_train=20, n_test=8, seed=11, short_every=5)
config = {
    "dataset_id": "FD001",
    "data_dir": data_dir,
    "out_dir": "out",
    "seed": 1,
    "hidden_sizes": [8, 4],
    "dropout_ratios": [0.1],
    "sequence_length": 30,
    "epochs": 3,
}
with open(os.path.join(work, "config.json"), "w") as fh:
    json.dump(config, fh)
rows = np.loadtxt(os.path.join(data_dir, "train_FD001.txt"), ndmin=2)
with open(os.path.join(work, "records.jsonl"), "w") as fh:
    for row in rows:  # unit, cycle, 3 settings, 21 sensors
        record = {"unit": int(row[0]), "cycle": int(row[1]), "sensors": row[5:].tolist()}
        fh.write(json.dumps(record) + "\n")
EOF

run() {  # run SIDE SRC LABEL COMMAND [ARGS...]: stdout goes into the side's tree
    local side=$1 src=$2 label=$3
    shift 3
    if ! (cd "$work/$side/tree" && PYTHONPATH="$src" python3 -m changepoint_rul.cli "$@" \
            >"stdout/$label.txt" 2>>"$work/$side/stderr.txt"); then
        echo "$side: '$*' failed; its stderr:" >&2
        cat "$work/$side/stderr.txt" >&2
        exit 2
    fi
}

config=(--config "$work/config.json")
for side in parent change; do
    src="$root/src"
    [ "$side" = parent ] && src="$work/ref/src"
    mkdir -p "$work/$side/tree/stdout"
    run "$side" "$src" detect detect --traces "${config[@]}"
    run "$side" "$src" train train "${config[@]}"
    run "$side" "$src" evaluate evaluate "${config[@]}"
    run "$side" "$src" sweep sweep --candidates 100,200 "${config[@]}"
    run "$side" "$src" monitor monitor --monitors out/monitors \
        --checkpoint out/checkpoint.npz --input "$work/records.jsonl"
    run "$side" "$src" monitor_no_checkpoint monitor --monitors out/monitors \
        --input "$work/records.jsonl"
done

if diff -r "$work/parent/tree" "$work/change/tree"; then
    echo "same outputs: $ref and the working tree ($(find "$work/change/tree" -type f | wc -l) files)"
else
    echo "outputs differ between $ref and the working tree" >&2
    exit 1
fi

python3 - "$work/change/tree" <<'EOF' || exit 1
import json
import pathlib
import sys


def refuse(constant):
    raise ValueError(f"non-finite constant {constant}")


paths = sorted(pathlib.Path(sys.argv[1]).rglob("*.json"))
for path in paths:
    try:
        json.loads(path.read_text(), parse_constant=refuse)
    except ValueError as exc:
        sys.exit(f"not strict JSON: {path}: {exc}")
print(f"strict JSON: {len(paths)} files")
EOF

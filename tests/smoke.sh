#!/usr/bin/env bash
# The command-line smoke run of the CI workflow, also run by tier-1
# (tests/test_cli.py::test_smoke_script).
#
#   tests/smoke.sh runtime COMMAND...
#   tests/smoke.sh console COMMAND...
#
# COMMAND runs aumann: an installed `aumann` script, or `python -m aumann`.
# `runtime` needs numpy alone (run it where scipy cannot be imported);
# `console` adds the exit-code checks of the flags and compares searches
# across worker counts. The demo and the JSON comparison run under $PYTHON
# (default `python`). Run from the repository root.
set -eu

part=$1
shift
aumann=("$@")
python=${PYTHON:-python}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run a command and fail unless it exits with status $1
expect_exit() {
    local want=$1 rc=0
    shift
    "$@" || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "smoke: expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}

case $part in
runtime)
    "${aumann[@]}" agree tests/data/gpt_polyhedral.json
    "${aumann[@]}" search --layer gpt --cone polyhedral --dim 3 --seeds 50
    "${aumann[@]}" search --layer gpt --cone polyhedral --dim 6 --seeds 200
    "${aumann[@]}" convert tests/data/quantum_pair.json --direction dovm2povm --out "$tmp/povm.json"
    "${aumann[@]}" convert "$tmp/povm.json" --direction povm2dovm
    "${aumann[@]}" gen --layer gpt --cone polyhedral --dim 3 --seed 7 --out "$tmp/polyhedral.json"
    "${aumann[@]}" agree "$tmp/polyhedral.json"
    "${aumann[@]}" analyze tests/data/hypothesis_only.json
    expect_exit 2 "${aumann[@]}" agree tests/data/invalid_cone_field.json
    expect_exit 2 "${aumann[@]}" agree tests/data/invalid_huge_dim.json
    expect_exit 2 "${aumann[@]}" agree tests/data/invalid_duplicate_key.json
    # a negative eigenvalue fails the PSD certificate and is named by the eigensolve
    expect_exit 2 "${aumann[@]}" agree tests/data/invalid_not_psd.json
    # every GPT mass rounds by one rule, so each planted cell matches itself at a tol below round-off
    "${aumann[@]}" search --layer gpt --cone simplex --dim 4 --worlds 48 --agents 6 --mode planted --tol 1e-300 \
        --seeds 64
    "$python" demos/05_scenario_files.py
    ;;
console)
    "${aumann[@]}" agree tests/data/model_b_classical.json
    "${aumann[@]}" agree --max-iters 1000 tests/data/model_b_classical.json
    "${aumann[@]}" search --layer classical --seeds 20 --workers 2
    "${aumann[@]}" search --layer classical --seeds 0 --workers 2
    expect_exit 2 "${aumann[@]}" search --layer classical --seeds -1
    expect_exit 2 "${aumann[@]}" agree --max-iters 0 tests/data/model_b_classical.json
    expect_exit 2 "${aumann[@]}" analyze --max-iters 0 tests/data/hypothesis_only.json
    expect_exit 2 "${aumann[@]}" search --layer classical --seeds 4 --workers 0
    # a dim no seed could be drawn with is rejected also when no seed runs
    expect_exit 2 "${aumann[@]}" search --layer quantum --dim 0 --seeds 0
    expect_exit 2 "${aumann[@]}" search --layer gpt --cone polyhedral --dim 1 --seeds 0
    expect_exit 2 "${aumann[@]}" search --layer gpt --cone simplex --dim -1 --seeds 0
    # every planted seed holds: a search exits 1 on a planted failure, and reports none
    for kind in "--layer classical" "--layer quantum" "--layer gpt --cone polyhedral --dim 3"; do
        # shellcheck disable=SC2086  # $kind is several flags
        "${aumann[@]}" search $kind --seeds 100 --mode planted --json > "$tmp/planted.json"
        "$python" -c "import json, sys; doc = json.load(open(sys.argv[1])); sys.exit(doc['planted_failures'] != 0 or doc['counts'] != {'holds': 100})" "$tmp/planted.json"
    done
    # each count crosses a block boundary of its kind (generators._block_seeds; default 6 worlds, 2 agents):
    # quantum 170 seeds a block, polyhedral dim 3 455, polyhedral dim 6 227, quantum at 70 worlds 32, PSD 170,
    # classical and simplex at 48 worlds 32; polyhedral cones at dim 3 get facet certificates, at dim 6 the fit
    # certificate; at 70 worlds a cell's mask is built from two 64-bit words
    for block in "--layer quantum --seeds 200" "--layer gpt --cone polyhedral --dim 3 --seeds 470" \
        "--layer gpt --cone polyhedral --dim 6 --seeds 240" "--layer quantum --worlds 70 --agents 3 --seeds 40" \
        "--layer gpt --cone psd --seeds 200" "--layer classical --worlds 48 --agents 6 --seeds 40" \
        "--layer gpt --cone simplex --dim 4 --worlds 48 --agents 6 --seeds 40"; do
        # shellcheck disable=SC2086  # $block is several flags
        "${aumann[@]}" search $block --json --workers 1 > "$tmp/search_w1.json"
        # shellcheck disable=SC2086
        "${aumann[@]}" search $block --json --workers 2 > "$tmp/search_w2.json"
        # the timings differ from run to run
        "$python" -c "import json, sys; a, b = ({k: v for k, v in json.load(open(p)).items() if k not in ('elapsed_s', 'generate_s', 'verify_s')} for p in sys.argv[1:]); sys.exit(a != b)" "$tmp/search_w1.json" "$tmp/search_w2.json"
    done
    ;;
*)
    echo "usage: $0 runtime|console COMMAND..." >&2
    exit 2
    ;;
esac

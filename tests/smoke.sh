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
    for block in "--layer quantum" "--layer gpt --cone polyhedral --dim 3"; do
        # shellcheck disable=SC2086  # $block is several flags
        "${aumann[@]}" search $block --seeds 40 --json --workers 1 > "$tmp/search_w1.json"
        # shellcheck disable=SC2086
        "${aumann[@]}" search $block --seeds 40 --json --workers 2 > "$tmp/search_w2.json"
        "$python" -c "import json, sys; a, b = ({k: v for k, v in json.load(open(p)).items() if k != 'elapsed_s'} for p in sys.argv[1:]); sys.exit(a != b)" "$tmp/search_w1.json" "$tmp/search_w2.json"
    done
    ;;
*)
    echo "usage: $0 runtime|console COMMAND..." >&2
    exit 2
    ;;
esac

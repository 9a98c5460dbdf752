#!/usr/bin/env bash
# Runs `cdes-lint --json --check` over the shipped specs, each bad fixture
# alone and the benchmark specs (read only), and diffs each output and its
# exit code against the goldens in tests/golden/lint/. Run from the
# repository root:
#
#   tests/golden/check_lint.sh build/tools/cdes-lint            # compare
#   tests/golden/check_lint.sh build/tools/cdes-lint --update   # rewrite
#
# A change meant to alter checker findings rewrites the goldens with
# --update and shows the difference in its diff.
set -u
lint=$1
update=${2:-}
golden_dir=tests/golden/lint
status=0

# check <golden file> <spec>...
check() {
  local golden=$golden_dir/$1
  shift
  local out code
  out=$("$lint" --json --check "$@") && code=0 || code=$?
  if [ "$update" = --update ]; then
    printf '%s\nexit %d\n' "$out" "$code" > "$golden"
  elif ! diff -u "$golden" <(printf '%s\nexit %d\n' "$out" "$code"); then
    echo "cdes-lint --json --check $* differs from $golden"
    status=1
  fi
}

check examples_specs.out examples/specs/*.wf
for spec in examples/specs/bad/*.spec; do
  check "bad_$(basename "$spec" .spec).out" "$spec"
done
check perfbench_specs.out perfbench/specs/*.wf
exit $status

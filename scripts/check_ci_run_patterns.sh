#!/usr/bin/env bash
# Fails when a `go test -run '...'` line in the CI workflow names tests
# that are not there: every `|` alternative of the pattern must match at
# least one test of the packages on that line (`go test -list`). A job
# whose pattern outlived a rename would otherwise run nothing and pass.
set -euo pipefail
set -f # patterns and words are taken literally, never globbed
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r line; do
	pattern=$(sed -nE "s/.* -run[ =]'?([^' ]+)'?.*/\1/p" <<<"$line")
	if [ -z "$pattern" ] || [ "$pattern" = NONE ]; then
		continue
	fi
	pkgs=()
	for w in $line; do
		case $w in . | ./*) pkgs+=("$w") ;; esac
	done
	names=$(go test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	for alt in ${pattern//|/ }; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "ci.yml: -run alternative '$alt' matches no test in ${pkgs[*]}"
			fail=1
		fi
	done
done < <(grep -E '^\s*(run: )?go test .* -run' .github/workflows/ci.yml)
exit $fail

#!/usr/bin/env bash
# Prints ROADMAP item 6's design-diet scoreboard. Every row is a count
# that a PR under that item may lower and must not raise; the commands
# are the ones ROADMAP.md cites, so the numbers there can be re-derived
# at any commit: bash scripts/scoreboard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Exported declarations as `go doc -all` lists them: every func, method
# and type line, and every const or var declared on a line of its own
# (members of a parenthesised block are not counted).
exported() { go doc -all "$1" 2>/dev/null | grep -cE '^(func|type) |^(const|var) [A-Za-z]' || true; }

# Fields of an options struct: the tab-indented exported field lines of
# its `go doc` rendering (`K, M int` is one).
fields() { go doc "$1" "$2" | grep -cE $'^\t[A-Z]' || true; }

# Flag definitions in a command's sources.
flags() {
	{ grep -hoE '\b(flag|fs)\.(String|Int|Int64|Uint|Uint64|Bool|Duration|Float64)(Var)?\(|\b(flag|fs)\.Var\(' cmd/"$1"/*.go || true; } | wc -l
}

lines=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)
internal=0
for p in $(go list ./internal/...); do
	internal=$((internal + $(exported "$p")))
done

printf '%-52s %s\n' 'non-test Go lines outside bench/' "$lines"
printf '%-52s %s\n' 'exported identifiers across internal/' "$internal"
printf '%-52s %s\n' 'stream.Options fields' "$(fields ./internal/stream Options)"
printf '%-52s %s\n' 'shardio.Options fields' "$(fields ./internal/shardio Options)"
printf '%-52s %s\n' 'cluster.GatewayOptions fields' "$(fields ./internal/cluster GatewayOptions)"
printf '%-52s %s\n' 'exported declarations in dialga.go' "$(exported .)"
for b in dialga-bench dialga-encode dialga-node; do
	printf '%-52s %s\n' "flags: $b" "$(flags "$b")"
done
printf '%-52s %s\n' 'flags across local tools' "$(($(flags dialga-bench) + $(flags dialga-encode)))"
printf '%-52s %s\n' 'CI jobs' "$(awk '/^jobs:/{j=1;next} j && /^  [a-z][a-z0-9-]*:$/{n++} END{print n+0}' .github/workflows/ci.yml)"

#!/bin/sh
# Coverage ratchet over the simulator stack. The claim entry set — the
# golden and exclusion tests in cmd/fxrepro, the root figure tests and
# paper ablations, the benchmark workloads at smoke scale, and the core
# tests that run every fault kind and feature flag — runs with coverage
# over the seven simulator packages. A block counts as covered if any
# run hits it. The uncovered blocks are printed, and the script fails
# if any package's uncovered statement count rises above its budget
# below: code that only its own unit tests reach does not come back.
#
# Usage: scripts/coverage.sh [-budget]
#   -budget  print the per-package counts in budget form and exit 0.
set -eu

cd "$(dirname "$0")/.."

pkgs=./internal/sim,./internal/core,./internal/ethernet,./internal/netstack,./internal/pvm,./internal/fx,./internal/faults
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go test -count=1 -coverpkg=$pkgs -coverprofile="$dir/repro.out" ./cmd/fxrepro >/dev/null
go test -count=1 -coverpkg=$pkgs -coverprofile="$dir/root.out" . -run . -bench Ablation -benchtime 1x >/dev/null
go test -count=1 -coverpkg=$pkgs -coverprofile="$dir/bench.out" ./bench -run TestSmoke >/dev/null
go test -count=1 -coverpkg=$pkgs -coverprofile="$dir/core.out" ./internal/core \
	-run 'Fault|Crash|Degrade|Stall|Switched|Guarantee|CrossTraffic|Nagle|FrameLoss' >/dev/null

# Per-package budget: uncovered statements under the entry set above.
# Lower a number when a change deletes or covers code; never raise one.
cat >"$dir/budget" <<'EOF'
core 77
ethernet 33
faults 28
fx 38
netstack 32
pvm 37
sim 43
EOF

mode=check
if [ "${1:-}" = -budget ]; then mode=budget; fi

# Profile lines are "file:start.col,end.col stmts count"; merge the four
# runs block by block, keeping a block covered if any run hit it.
cat "$dir"/*.out | awk -v mode=$mode -v budget="$dir/budget" '
/^mode:/ { next }
{
	blk = $1; stmts[blk] = $2
	if ($3 > 0) hit[blk] = 1
}
END {
	while ((getline line < budget) > 0) { split(line, f, " "); order[++npkg] = f[1]; limit[f[1]] = f[2] }
	for (b in stmts) {
		split(b, p, ":"); n = split(p[1], d, "/"); pkg = d[n-1]
		total[pkg] += stmts[b]
		if (!(b in hit)) {
			miss[pkg] += stmts[b]
			if (mode == "check") print "uncovered: " b " (" stmts[b] " stmts)" | "sort -t: -k1,1 -k2n"
		}
	}
	close("sort -t: -k1,1 -k2n")
	for (pkg in total) if (!(pkg in limit)) order[++npkg] = pkg
	fail = 0; all = 0; alltot = 0
	for (i = 1; i <= npkg; i++) {
		pkg = order[i]; all += miss[pkg]; alltot += total[pkg]
		if (mode == "budget") { printf "%s %d\n", pkg, miss[pkg]; continue }
		printf "coverage: %-9s %4d/%4d uncovered (budget %s)\n", pkg, miss[pkg], total[pkg], (pkg in limit) ? limit[pkg] : "none"
		if (!(pkg in limit) || miss[pkg] > limit[pkg]) { print "coverage: " pkg " is over its budget"; fail = 1 }
	}
	if (mode == "check") printf "coverage: total     %4d/%4d uncovered\n", all, alltot
	exit fail && mode == "check"
}'

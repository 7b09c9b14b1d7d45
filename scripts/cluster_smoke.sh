#!/bin/sh
# Cluster smoke: boot a 3-shard fxnetd ring on ephemeral ports and prove
# the invariants the sharding exists for:
#
#   1. Ring agreement — every shard names the same owner for a key.
#   2. Warm-cluster dedup — a configuration submitted through EVERY
#      front executes exactly one simulation cluster-wide: submits to
#      non-owners proxy to the owner, who answers from memo/idempotency.
#   3. Warm under skew — fxload's Zipf-skewed spray across all three
#      fronts, offered twice: the second pass executes nothing new,
#      whichever shard each request lands on.
#   4. Ledger gossip — a QoS commitment on one shard shows up in every
#      other shard's remote-committed gauge.
#   5. Graceful degradation — SIGKILL one shard; the survivors notice
#      (peers_up drops), and submissions whose owner is dead fall back
#      to local execution instead of failing.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PIDS=
cleanup() {
	for P in $PIDS; do kill "$P" 2>/dev/null || true; done
	rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/fxnetd" ./cmd/fxnetd
go build -o "$TMP/fxload" ./cmd/fxload
go build -o "$TMP/freeports" ./scripts/freeports

set -- $("$TMP/freeports" 3)
P0=$1 P1=$2 P2=$3
PEERS="s0=http://127.0.0.1:$P0,s1=http://127.0.0.1:$P1,s2=http://127.0.0.1:$P2"

for i in 0 1 2; do
	eval "PORT=\$P$i"
	"$TMP/fxnetd" -addr "127.0.0.1:$PORT" -j 2 -cache "$TMP/cache$i" \
		-cluster-self "s$i" -cluster-peers "$PEERS" -cluster-gossip 200ms \
		>"$TMP/log$i" 2>&1 &
	PIDS="$PIDS $!"
done
B0="http://127.0.0.1:$P0" B1="http://127.0.0.1:$P1" B2="http://127.0.0.1:$P2"

for B in "$B0" "$B1" "$B2"; do
	i=0
	until curl -fsS "$B/healthz" 2>/dev/null | grep -q '"status": "ok"'; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "cluster: FAIL: shard at $B never became healthy" >&2
			cat "$TMP"/log* >&2
			exit 1
		fi
		sleep 0.1
	done
done
echo "cluster: 3 shards up ($B0 $B1 $B2)" >&2

# submit <base> <body>: POST a run, print "<id> <key>".
submit() {
	OUT=$(curl -fsS -X POST "$1/v1/runs" -d "$2")
	printf '%s %s\n' \
		"$(echo "$OUT" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')" \
		"$(echo "$OUT" | sed -n 's/.*"key": "\([^"]*\)".*/\1/p')"
}

# wait_done <base> <id>: poll until the run leaves "queued"; fail unless done.
wait_done() {
	j=0
	while :; do
		STATE=$(curl -fsS "$1/v1/runs/$2" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
		[ "$STATE" = "queued" ] || break
		j=$((j + 1))
		if [ "$j" -gt 600 ]; then
			echo "cluster: FAIL: run $2 stuck in queued" >&2
			exit 1
		fi
		sleep 0.1
	done
	if [ "$STATE" != "done" ]; then
		echo "cluster: FAIL: run $2 ended $STATE" >&2
		curl -fsS "$1/v1/runs/$2" >&2 || true
		exit 1
	fi
}

# metric <base> <name>: read one gauge/counter from a shard's /metrics.
metric() {
	curl -fsS "$1/metrics" | sed -n "s/^$2 //p"
}

# farm_sum <counter>: one farm counter summed over the shards, e.g.
# "executed" — simulations actually run cluster-wide.
farm_sum() {
	T=0
	for B in "$B0" "$B1" "$B2"; do
		E=$(metric "$B" "fxnetd_farm_$1_total")
		T=$((T + ${E:-0}))
	done
	echo "$T"
}

CFG='{"program":"sor","p":4,"n":32,"iters":4,"seed":7}'

echo "cluster: submit via s0, read the key" >&2
set -- $(submit "$B0" "$CFG")
ID=$1 KEY=$2
[ -n "$ID" ] && [ -n "$KEY" ] || { echo "cluster: FAIL: no id/key from submit" >&2; exit 1; }
wait_done "$B0" "$ID"

echo "cluster: ring agreement on the key's owner" >&2
OWNER=
for B in "$B0" "$B1" "$B2"; do
	O=$(curl -fsS "$B/v1/cluster/ring?key=$KEY" | sed -n 's/.*"owner": "\([^"]*\)".*/\1/p')
	[ -n "$O" ] || { echo "cluster: FAIL: $B did not name an owner" >&2; exit 1; }
	[ -z "$OWNER" ] && OWNER=$O
	if [ "$O" != "$OWNER" ]; then
		echo "cluster: FAIL: ring disagreement: $B says $O, first shard said $OWNER" >&2
		exit 1
	fi
done
echo "cluster: all shards agree $KEY belongs to $OWNER" >&2

echo "cluster: warm-cluster dedup through every front" >&2
for B in "$B1" "$B2" "$B0" "$B1" "$B2"; do
	set -- $(submit "$B" "$CFG")
	wait_done "$B" "$1"
done
EXEC=$(farm_sum executed)
if [ "$EXEC" != "1" ]; then
	echo "cluster: FAIL: $EXEC simulations executed cluster-wide, want exactly 1" >&2
	for B in "$B0" "$B1" "$B2"; do
		echo "  $B executed=$(metric "$B" fxnetd_farm_executed_total)" >&2
	done
	exit 1
fi

echo "cluster: warm cluster under a Zipf-skewed spray executes nothing new" >&2
# spray: fxload's mixed traffic over 8 keys on every front, then wait
# for the farms to go idle. The draws are a function of fxload's seed,
# so a second spray offers exactly the keys and fronts the first warmed.
spray() {
	"$TMP/fxload" -targets "$B0,$B1,$B2" -keys 8 -zipf 1.3 -rps 100 -duration 2s >"$TMP/load.out"
	if ! grep -q ', 0 errors,' "$TMP/load.out"; then
		echo "cluster: FAIL: fxload reported errors" >&2
		cat "$TMP/load.out" >&2
		exit 1
	fi
	k=0
	until [ "$(farm_sum completed)" = "$(farm_sum submitted)" ]; do
		k=$((k + 1))
		[ "$k" -gt 100 ] && { echo "cluster: FAIL: farms never went idle after the spray" >&2; exit 1; }
		sleep 0.1
	done
}
spray
WARM=$(farm_sum executed)
spray
if [ "$(farm_sum executed)" != "$WARM" ]; then
	echo "cluster: FAIL: warm cluster executed $(($(farm_sum executed) - WARM)) new simulations under the spray, want 0" >&2
	exit 1
fi

echo "cluster: QoS commitment on s1 gossips to the other shards" >&2
OFFER=$(curl -fsS -X POST "$B1/v1/qos/negotiate" -d '{"program":"sor","client":"cluster-smoke"}')
echo "$OFFER" | grep -q '"id"' || { echo "cluster: FAIL: negotiate refused: $OFFER" >&2; exit 1; }
k=0
while :; do
	REMOTE=$(metric "$B0" fxnetd_cluster_remote_committed_bytes_per_second)
	case "$REMOTE" in
	''|0|0.0) ;;
	*) break ;;
	esac
	k=$((k + 1))
	if [ "$k" -gt 50 ]; then
		echo "cluster: FAIL: s0 never saw s1's commitment (remote=$REMOTE)" >&2
		exit 1
	fi
	sleep 0.1
done
echo "cluster: s0 sees $REMOTE B/s committed remotely" >&2

echo "cluster: SIGKILL s2, survivors degrade gracefully" >&2
set -- $PIDS
kill -9 "$3"
k=0
while :; do
	UP=$(metric "$B0" fxnetd_cluster_peers_up)
	[ "$UP" = "1" ] && break
	k=$((k + 1))
	if [ "$k" -gt 50 ]; then
		echo "cluster: FAIL: s0 still reports peers_up=$UP after killing s2" >&2
		exit 1
	fi
	sleep 0.1
done

# Fresh keys until one lands on the dead owner: the submit must still be
# accepted and run locally (proxy fallback), not fail. ~1/3 of keys
# belong to s2, so a handful of seeds is plenty.
seed=100
while :; do
	set -- $(submit "$B0" "{\"program\":\"sor\",\"p\":4,\"n\":32,\"iters\":4,\"seed\":$seed}")
	[ -n "$1" ] || { echo "cluster: FAIL: submit with dead peer refused (seed $seed)" >&2; exit 1; }
	wait_done "$B0" "$1"
	FB=$(metric "$B0" fxnetd_cluster_proxy_fallbacks_total)
	[ "${FB:-0}" -ge 1 ] && break
	seed=$((seed + 1))
	if [ "$seed" -gt 160 ]; then
		echo "cluster: FAIL: 60 fresh keys, none exercised proxy fallback" >&2
		exit 1
	fi
done
echo "cluster: dead-owner submit fell back to local execution (seed $seed)" >&2

echo "cluster: OK" >&2

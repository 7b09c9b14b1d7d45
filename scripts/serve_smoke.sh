#!/bin/sh
# Service smoke: boot fxnetd on an ephemeral port over a run cache (so
# the model catalog is on) and drive every endpoint the README lists:
# the run queue end to end (submit → poll → trace, NDJSON and binary →
# spectrum, aggregate and per connection), the dedup invariant over HTTP
# (the same configuration submitted twice executes exactly one
# simulation, visible in /metrics), a refused configuration, a
# multi-segment run and its engine counters, a model fit and the
# catalog's list/get, analytic and catalog-backed QoS admission with the
# commitment ledger, an fxload drive over Zipf-skewed keys, a
# fault-aborted run, a stream job, cancelling a queued run, an in-flight
# twin sharing its execution, and finally SIGTERM with a simulation in
# flight: a clean drain, exit 0.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PID=
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/fxnetd" ./cmd/fxnetd
go build -o "$TMP/fxload" ./cmd/fxload

"$TMP/fxnetd" -addr 127.0.0.1:0 -portfile "$TMP/port" -j 2 -cache "$TMP/cache" >"$TMP/log" 2>&1 &
PID=$!

i=0
while [ ! -s "$TMP/port" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "smoke: FAIL: fxnetd never wrote its port file" >&2
		cat "$TMP/log" >&2
		exit 1
	fi
	sleep 0.1
done
BASE="http://127.0.0.1:$(cat "$TMP/port")"
echo "smoke: fxnetd up at $BASE" >&2

curl -fsS "$BASE/healthz" | grep -q '"status": "ok"' || {
	echo "smoke: FAIL: /healthz not ok" >&2
	exit 1
}

# submit <body>: POST a run and print its id.
submit() {
	curl -fsS -X POST "$BASE/v1/runs" -d "$1" |
		sed -n 's/.*"id": "\([^"]*\)".*/\1/p'
}

# wait_done <id>: poll until the run leaves "queued"; fail unless done.
wait_done() {
	j=0
	while :; do
		STATE=$(curl -fsS "$BASE/v1/runs/$1" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
		[ "$STATE" = "queued" ] || break
		j=$((j + 1))
		if [ "$j" -gt 600 ]; then
			echo "smoke: FAIL: run $1 stuck in queued" >&2
			exit 1
		fi
		sleep 0.1
	done
	if [ "$STATE" != "done" ]; then
		echo "smoke: FAIL: run $1 ended $STATE" >&2
		curl -fsS "$BASE/v1/runs/$1" >&2 || true
		exit 1
	fi
}

# metric <name>: read one gauge/counter from /metrics.
metric() {
	curl -fsS "$BASE/metrics" | sed -n "s/^$1 //p"
}

# status <method> <path> [body]: the HTTP status of one request; the
# response body is left in $TMP/body.
status() {
	curl -sS -o "$TMP/body" -w '%{http_code}' -X "$1" "$BASE$2" ${3:+-d "$3"}
}

# lines <path> <min>: fail unless the streamed response has more than
# <min> lines.
lines() {
	N=$(curl -fsS "$BASE$1" | wc -l)
	[ "$N" -gt "$2" ] || { echo "smoke: FAIL: $1 streamed $N lines" >&2; exit 1; }
}

CFG='{"program":"sor","p":4,"n":32,"iters":4,"seed":7}'

echo "smoke: submit + poll" >&2
ID=$(submit "$CFG")
[ -n "$ID" ] || { echo "smoke: FAIL: no run id" >&2; exit 1; }
wait_done "$ID"

echo "smoke: trace and spectrum streams" >&2
lines "/v1/runs/$ID/trace" 1
MAGIC=$(curl -fsS "$BASE/v1/runs/$ID/trace?format=bin" | head -c 7)
[ "$MAGIC" = FXTRACE ] || { echo "smoke: FAIL: binary trace starts with '$MAGIC'" >&2; exit 1; }
lines "/v1/runs/$ID/spectrum" 1
lines "/v1/runs/$ID/spectrum?conn=1" 1

echo "smoke: duplicate submission must not re-simulate" >&2
ID2=$(submit "$CFG")
wait_done "$ID2"
EXECUTED=$(metric fxnetd_farm_executed_total)
DEDUPED=$(metric fxnetd_farm_deduped_total)
if [ "$EXECUTED" != "1" ] || [ "$DEDUPED" != "1" ]; then
	echo "smoke: FAIL: executed=$EXECUTED deduped=$DEDUPED, want 1/1" >&2
	exit 1
fi

echo "smoke: a configuration the run path refuses is a 400" >&2
CODE=$(status POST /v1/runs '{"program":"sor","topology":"lan0:0-1,lan1:2-3","faults":"5s:linkdown host2"}')
if [ "$CODE" != 400 ] || ! grep -q 'not supported' "$TMP/body"; then
	echo "smoke: FAIL: refused configuration answered $CODE: $(cat "$TMP/body")" >&2
	exit 1
fi

echo "smoke: multi-segment run" >&2
TOPO=$(submit '{"program":"sor","p":4,"n":32,"iters":4,"seed":7,"topology":"lan0:0-1,lan1:2-3"}')
wait_done "$TOPO"
[ "$(metric fxnetd_engine_partitioned_runs_total)" = 1 ] || {
	echo "smoke: FAIL: the partitioned run is not in fxnetd_engine_partitioned_runs_total" >&2
	exit 1
}

echo "smoke: model fit, list, get" >&2
FIT=$(curl -fsS -X POST "$BASE/v1/models/fit" -d '{"program":"sor","p":4,"n":64,"iters":10,"seed":1}' |
	sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$FIT" ] || { echo "smoke: FAIL: no fit job id" >&2; exit 1; }
wait_done "$FIT"
KEY=$(curl -fsS "$BASE/v1/runs/$FIT" | sed -n 's/.*"key": "\([^"]*\)".*/\1/p' | head -1)
curl -fsS "$BASE/v1/models?program=sor&p=4" | grep -q '"count": 1' || {
	echo "smoke: FAIL: the fitted model is not listed" >&2
	exit 1
}
curl -fsS "$BASE/v1/models/$KEY" | grep -q "\"key\": \"$KEY\"" || {
	echo "smoke: FAIL: model $KEY not served" >&2
	exit 1
}

echo "smoke: QoS negotiate (analytic and catalog), ledger, release" >&2
# admit <body>: negotiate, find the admission in the ledger, release it.
admit() {
	OFFER=$(curl -fsS -X POST "$BASE/v1/qos/negotiate" -d "$1")
	QID=$(echo "$OFFER" | sed -n 's/.*"id": \([0-9]*\).*/\1/p' | head -1)
	[ -n "$QID" ] || { echo "smoke: FAIL: no admission id in $OFFER" >&2; exit 1; }
	curl -fsS "$BASE/v1/qos/commitments" | grep -q "\"id\": $QID" || {
		echo "smoke: FAIL: admission $QID missing from the ledger" >&2
		exit 1
	}
	curl -fsS -X DELETE "$BASE/v1/qos/commitments/$QID" >/dev/null
}
admit '{"program":"sor","n":256,"iters":10,"client":"smoke"}'
admit '{"program":"sor","source":"catalog","client":"smoke"}'

echo "smoke: fxload drive, Zipf-skewed keys" >&2
"$TMP/fxload" -url "$BASE" -duration 1s -rps 40 -clients 2 -keys 4 -zipf 1.3 -json "$TMP/load.json" >"$TMP/load" 2>&1 || {
	echo "smoke: FAIL: fxload" >&2
	cat "$TMP/load" >&2
	exit 1
}
grep -q '^farm: ' "$TMP/load" && grep -q ' 0 errors' "$TMP/load" && grep -q '"zipf_s": 1.3' "$TMP/load.json" || {
	echo "smoke: FAIL: fxload report" >&2
	cat "$TMP/load" >&2
	exit 1
}

echo "smoke: a run aborted under faults reports its error" >&2
FAULT=$(submit '{"program":"2dfft","p":4,"n":64,"iters":10,"faults":"0.1s:crash host2"}')
wait_done "$FAULT"
curl -fsS "$BASE/v1/runs/$FAULT" | grep -q '"run_error": "fx: 2dfft rank' || {
	echo "smoke: FAIL: run $FAULT reports no fault outcome" >&2
	exit 1
}

echo "smoke: stream analysis keeps a spectrum and no trace" >&2
AIR=$(submit '{"program":"airshed","p":4,"hours":1,"analysis":"stream"}')
wait_done "$AIR"
lines "/v1/runs/$AIR/spectrum" 1
[ "$(status GET "/v1/runs/$AIR/trace")" = 409 ] || {
	echo "smoke: FAIL: a stream run served a trace" >&2
	exit 1
}

echo "smoke: cancel a queued run; an in-flight twin shares its execution" >&2
SLOW1='{"program":"seq","p":4,"n":64,"iters":60,"seed":7}'
BUSY1=$(submit "$SLOW1")
BUSY2=$(submit '{"program":"seq","p":4,"n":64,"iters":60,"seed":8}')
[ -n "$BUSY1" ] && [ -n "$BUSY2" ] || { echo "smoke: FAIL: no slow run ids" >&2; exit 1; }
k=0
while [ "$(metric fxnetd_sims_in_flight)" != 2 ]; do
	k=$((k + 1))
	if [ "$k" -gt 100 ]; then
		echo "smoke: FAIL: the two slow runs never both started" >&2
		exit 1
	fi
	sleep 0.05
done
QUEUED=$(submit '{"program":"seq","p":4,"n":64,"iters":60,"seed":9}')
curl -fsS -X DELETE "$BASE/v1/runs/$QUEUED" | grep -q '"state": "cancelled"' || {
	echo "smoke: FAIL: queued run $QUEUED not cancelled" >&2
	exit 1
}
EXECUTED=$(metric fxnetd_farm_executed_total)
DEDUPED=$(metric fxnetd_farm_deduped_total)
TWIN=$(submit "$SLOW1")
for id in "$TWIN" "$BUSY1" "$BUSY2"; do
	wait_done "$id"
done
if [ "$(metric fxnetd_farm_executed_total)" != "$((EXECUTED + 2))" ] ||
	[ "$(metric fxnetd_farm_deduped_total)" != "$((DEDUPED + 1))" ]; then
	echo "smoke: FAIL: the twin of a running job did not share its execution" >&2
	exit 1
fi

curl -fsS "$BASE/debug/pprof/" >/dev/null

echo "smoke: graceful drain under SIGTERM with a run in flight" >&2
SLOW=$(submit '{"program":"seq","p":4,"n":64,"iters":30,"seed":10}')
[ -n "$SLOW" ] || { echo "smoke: FAIL: no slow run id" >&2; exit 1; }
kill -TERM "$PID"
STATUS=0
wait "$PID" || STATUS=$?
PID=
if [ "$STATUS" != "0" ]; then
	echo "smoke: FAIL: fxnetd exited $STATUS after SIGTERM" >&2
	cat "$TMP/log" >&2
	exit 1
fi
grep -q "drained, exiting" "$TMP/log" || {
	echo "smoke: FAIL: no drain line in log" >&2
	cat "$TMP/log" >&2
	exit 1
}

echo "smoke: OK" >&2

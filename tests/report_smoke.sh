#!/usr/bin/env bash
# End-to-end smoke for `cipnet report`: generate a real artifact bundle the
# way an operator would — a chaos-soaked `cipnet serve` run leaving a
# flight dump and a sample stream, plus a traced+sampled `reach` run — and
# round-trip the bundle through every report format, the span trace also
# through the chrome and tree views. Guards the whole chain: global flag
# parsing, sampler export, serve-exit flight dump, line recognition, every
# renderer, and the `--progress` stderr stream that rides on the sampler.
#
# usage: report_smoke.sh <cipnet-binary>
set -u -o pipefail

CIPNET="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

fail() { echo "report_smoke: FAIL: $*" >&2; exit 1; }

NET='.net ab\n.place p0 1\n.place p1\n.trans a : p0 -> p1\n.trans b : p1 -> p0\n.end'

# --- artifact 1+2: chaos-soaked serve run -> flight dump + sample stream.
# The fault spec fires on parse and cache-insert paths; garbage frames and
# an unknown op guarantee errored jobs land in the flight ring. The spec is
# best-effort: the soak must not depend on CIPNET_FAULT being compiled in.
requests() {
  for i in $(seq 1 24); do
    case $((i % 4)) in
      0) printf '{"id":%d,"op":"ping"}\n' "$i" ;;
      1) printf '{"id":%d,"op":"reach","net":"%s"}\n' "$i" "$NET" ;;
      2) printf '{"id":%d,"op":"frobnicate"}\n' "$i" ;;
      *) printf 'not json (%d)\n' "$i" ;;
    esac
  done
  printf '{"id":99,"op":"history"}\n'
}
FAULT_ARGS=()
if "$CIPNET" --version | grep -q 'features: .*fault'; then
  FAULT_ARGS=(--fault-spec 'seed=7;svc.parse=p0.1;svc.cache.insert=p0.2')
fi
requests | "$CIPNET" serve --workers 2 \
    --sample-ms 1 --samples-out "$DIR/samples.jsonl" \
    --flight-dump "$DIR/flight.jsonl" \
    ${FAULT_ARGS[@]+"${FAULT_ARGS[@]}"} \
    > "$DIR/responses.jsonl" 2> "$DIR/serve.err" \
  || fail "serve run exited nonzero"

[ -s "$DIR/flight.jsonl" ] || fail "serve left no flight dump"
[ -s "$DIR/samples.jsonl" ] || fail "sampler exported no samples"
grep -q '"event":"flight_dump"' "$DIR/flight.jsonl" \
  || fail "flight dump lacks its header line"
grep -q '"event":"sample"' "$DIR/samples.jsonl" \
  || fail "sample stream lacks sample lines"

# --- artifact 3: traced reach run -> span JSONL (plus its sample stream).
"$CIPNET" expr "a.b.c || d.e || f.g" -o "$DIR/net.cpn" > /dev/null \
  || fail "expr failed"
"$CIPNET" reach "$DIR/net.cpn" --trace-out "$DIR/trace.jsonl" \
    --sample-ms 1 --samples-out "$DIR/reach_samples.jsonl" \
    > /dev/null 2>&1 || fail "traced reach failed"

# --- --progress prints sampler lines on stderr: one naming reach.states
# and RSS, and the close-out sample last, also after a --max-states stop.
# The trace file carries spans and counters, no progress events.
"$CIPNET" reach "$DIR/net.cpn" --progress --trace-out "$DIR/progress.jsonl" \
    > /dev/null 2> "$DIR/progress.err" || fail "reach --progress failed"
grep -q '^\[progress\] .*rss .*, reach\.states [0-9]' "$DIR/progress.err" \
  || fail "--progress printed no sample line naming reach.states"
tail -n 1 "$DIR/progress.err" | grep -q '^\[progress\] ' \
  || fail "--progress output does not end with the close-out sample"
if grep -q '"event":"progress"' "$DIR/progress.jsonl"; then
  fail "the trace file holds progress events"
fi
if "$CIPNET" reach "$DIR/net.cpn" --progress --max-states 5 \
    > /dev/null 2> "$DIR/limit.err"; then
  fail "reach --max-states 5 did not stop on its limit"
fi
tail -n 1 "$DIR/limit.err" | grep -q '^\[progress\] .*, reach\.states 5 ' \
  || fail "a run stopped by --max-states lacks its close-out sample"

BUNDLE="$DIR/trace.jsonl $DIR/samples.jsonl $DIR/flight.jsonl"

# --- text: every expected section present.
"$CIPNET" report $BUNDLE -o "$DIR/report.txt" 2> /dev/null \
  || fail "text report exited nonzero"
for section in "Phase breakdown" "Top spans" "RSS curve" "Flight recorder"; do
  grep -q "$section" "$DIR/report.txt" \
    || fail "text report lacks section: $section"
done
grep -q "reach.explore" "$DIR/report.txt" \
  || fail "text report never mentions reach.explore"

# --- markdown: tables.
"$CIPNET" report $BUNDLE --format md -o "$DIR/report.md" 2> /dev/null \
  || fail "markdown report exited nonzero"
grep -q '^# Post-mortem report' "$DIR/report.md" \
  || fail "markdown report lacks its title"
grep -q '| phase | count | total | mean | max |' "$DIR/report.md" \
  || fail "markdown report lacks the phase table"

# --- json: machine-readable, and the report re-ingests its own ingest
# stats (cheap structural check without a JSON parser: key presence).
"$CIPNET" report $BUNDLE --format json -o "$DIR/report.json" 2> /dev/null \
  || fail "json report exited nonzero"
for key in '"ingested"' '"phases"' '"samples"' '"flight"' '"final_counters"'; do
  grep -q "$key" "$DIR/report.json" || fail "json report lacks key $key"
done

# --- chrome: the span trace as a Perfetto-loadable trace-event document.
"$CIPNET" report "$DIR/trace.jsonl" --format chrome -o "$DIR/trace.json" \
    2> /dev/null || fail "chrome report exited nonzero"
grep -q '"traceEvents"' "$DIR/trace.json" \
  || fail "chrome report lacks traceEvents"
grep -q '"ph":"X"' "$DIR/trace.json" \
  || fail "chrome report lacks complete span events"

# --- tree: the span tree that `--trace-out` recorded.
"$CIPNET" report "$DIR/trace.jsonl" --format tree -o "$DIR/tree.txt" \
    2> /dev/null || fail "tree report exited nonzero"
grep -q '^  reach\.explore ' "$DIR/tree.txt" \
  || fail "tree report does not name reach.explore"

# --- the states/s column comes from consecutive samples of a reach run.
"$CIPNET" report "$DIR/reach_samples.jsonl" --format md -o "$DIR/rate.md" \
    2> /dev/null || fail "sample-stream report exited nonzero"
grep -q '| seq | t | rss | states | states/s |' "$DIR/rate.md" \
  || fail "sample-stream report lacks the states/s column"

# --- unknown format is a clean structured failure, not a crash.
if "$CIPNET" report $BUNDLE --format xml > /dev/null 2> "$DIR/badfmt.err"; then
  fail "unknown format was accepted"
fi
grep -q "unknown report format" "$DIR/badfmt.err" \
  || fail "unknown format error lacks its message"

echo "report_smoke: OK"

#!/bin/sh
# Fuzz smoke pass: run every native fuzz target briefly so CI exercises
# the engine and the checked-in corpora, not just the seed replay that
# an ordinary `go test` does.
#
#   sh scripts/fuzz.sh [fuzztime]
#
# fuzztime defaults to 10s per target. `go test -fuzz` accepts a single
# target per invocation, so each runs on its own.
set -e

FUZZTIME="${1:-10s}"

for target in FuzzReader FuzzTicket FuzzAuthenticator FuzzKDCMessages; do
    echo "== go test -fuzz=$target -fuzztime=$FUZZTIME ./internal/wire"
    go test -run '^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/wire
done

for target in FuzzDecoders FuzzUnseal; do
    echo "== go test -fuzz=$target -fuzztime=$FUZZTIME ./internal/core"
    go test -run '^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/core
done

for target in FuzzQuadChecksum FuzzModes; do
    echo "== go test -fuzz=$target -fuzztime=$FUZZTIME ./internal/des"
    go test -run '^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/des
done

echo "== go test -fuzz=FuzzDelta -fuzztime=$FUZZTIME ./internal/kprop"
go test -run '^$' -fuzz='^FuzzDelta$' -fuzztime="$FUZZTIME" ./internal/kprop

for target in FuzzParseDump FuzzParseKDB4 FuzzSegmentReplay; do
    echo "== go test -fuzz=$target -fuzztime=$FUZZTIME ./internal/kdb"
    go test -run '^$' -fuzz="^${target}\$" -fuzztime="$FUZZTIME" ./internal/kdb
done

echo "== go test -fuzz=FuzzReplayCache -fuzztime=$FUZZTIME ./internal/replay"
go test -run '^$' -fuzz='^FuzzReplayCache$' -fuzztime="$FUZZTIME" ./internal/replay

echo "== go test -fuzz=FuzzHandleBatch -fuzztime=$FUZZTIME ./internal/kdc"
go test -run '^$' -fuzz='^FuzzHandleBatch$' -fuzztime="$FUZZTIME" ./internal/kdc

echo "fuzz smoke: OK"

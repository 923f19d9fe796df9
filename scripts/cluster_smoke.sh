#!/usr/bin/env bash
# Cluster smoke test: boot a replicated cluster with a dedicated
# durable metadata node and a warm standby, then run three chaos
# phases against it:
#
#   Phase A — chunk-plane outage: mcsload drives the cluster while a
#   seeded chaos scenario takes storage node 3 through a 200-request
#   outage window.
#   Phase B — metadata-plane failover: a second load runs while the
#   metadata primary is SIGKILLed mid-load and NOT restarted. The
#   standby's lease expires, it self-promotes (bumping the fencing
#   epoch), and the load finishes against the new primary. The old
#   primary then comes back from its own WAL, is fenced on its first
#   write (typed "fenced" error), and rejoins as a standby of the
#   new primary.
#   Phase C — sharded metadata plane: a fresh cluster runs with TWO
#   metadata shards (each a primary+standby pair sharing one
#   -metashards map). Mid-load, shard 1's primary is SIGKILLed and
#   NOT restarted: shard 1 fails over to its standby while shard 0
#   never notices. The load finishes with every acked file intact,
#   mcsrebalance -meta -verify audits the namespace placement clean,
#   and mcstrace -strict decomposes every acked transfer.
#
# The phases are sequential so each gate is deterministic: phase A's
# verify sweep runs against a cluster whose outage window has closed,
# and phase B's runs against a healthy chunk plane, isolating what the
# metadata kill must not break.
#
# Invariants asserted:
#
#   1. every acknowledged upload is retrieved back byte-identical
#      (0 lost, 0 corrupted) — mcsload -verify exits non-zero
#      otherwise — in BOTH phases, which for phase B means every file
#      acked before the SIGKILL survived the failover without the
#      primary ever coming back;
#   2. mcs_cluster_underreplicated returns to 0 on every node once the
#      repair loop has re-streamed the replicas the outage missed;
#   3. the standby self-promotes within its lease TTL, the deposed
#      primary's writes are rejected with the typed "fenced" error,
#      and once re-attached as a standby it drains its lag to 0;
#   4. a follow-up mcsrebalance pass finds nothing left to move;
#   5. distributed tracing joins end-to-end: mcstrace -strict over the
#      storage nodes' /debug/traces plus both loaders' trace dumps must
#      decompose every acknowledged chunk transfer completely;
#   6. ring peers prove each other's stamps across processes: nodes 1
#      and 3, which stream mcsbin/1 replica batches to each other, each
#      check the other's batches by CRC only (mcs_cluster_peers_vouched).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=$(mktemp -d)
WORK=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/mcsserver ./cmd/mcsload ./cmd/mcsrebalance ./cmd/mcstrace

N1=http://127.0.0.1:8081
N2=http://127.0.0.1:8082
N3=http://127.0.0.1:8083
PEERS="$N1,$N2,$N3"
META=http://127.0.0.1:8070
METASTBY=http://127.0.0.1:8071
# Node 3 rejects every request in its [30, 230) request window; the
# other nodes share the spec but the node= gate disables it for them.
CHAOS="name=smoke,seed=7,outage=30+200,node=$N3"

# The metadata plane is its own pair of processes: a durable primary
# (WAL + 2s checkpoints) that assigns the storage nodes as front-ends,
# and a standby replicating its WAL stream with a 2s failover lease —
# if the primary stops answering pulls for 2s, the standby promotes
# itself after confirming no better rival exists. Front-ends list
# both endpoints and rediscover the primary via /v1/meta/wal/status.
start_meta_primary() {
    "$BIN/mcsserver" -meta :8070 -frontends "" -ops :8093 -log "$WORK/m$1.log" \
        -metadata-dir "$WORK/meta" -metacheckpoint 2s -metafrontends "$PEERS" \
        >"$WORK/m$1.out" 2>&1 &
    MPID=$!
    pids+=($MPID)
}
start_meta_primary 1
"$BIN/mcsserver" -meta :8071 -frontends "" -ops :8094 -log "$WORK/s.log" \
    -metadata-dir "$WORK/metastby" -metastandby "$META" -metafrontends "$PEERS" \
    -metafailover 2s -metapeers "$META" \
    >"$WORK/s.out" 2>&1 &
pids+=($!)

# Each storage node gets a durable segment store so the traced disk
# stage (append + fsync-wait spans) carries real time in the diagnosis.
"$BIN/mcsserver" -frontends :8081 -metaurl "$META,$METASTBY" -ops :8090 -log "$WORK/n1.log" \
    -data "$WORK/d1" \
    -peers "$PEERS" -replicas 3 -quorum 2 -chaos "$CHAOS" >"$WORK/n1.out" 2>&1 &
pids+=($!)
# N2 runs with the binary dialect withheld (-binapi=false): a
# mixed-version ring where one legacy-JSON node keeps serving while
# its peers negotiate mcsbin/1 among themselves.
"$BIN/mcsserver" -frontends :8082 -metaurl "$META,$METASTBY" -ops :8091 -log "$WORK/n2.log" \
    -data "$WORK/d2" -binapi=false \
    -peers "$PEERS" -replicas 3 -quorum 2 -chaos "$CHAOS" >"$WORK/n2.out" 2>&1 &
pids+=($!)
"$BIN/mcsserver" -frontends :8083 -metaurl "$META,$METASTBY" -ops :8092 -log "$WORK/n3.log" \
    -data "$WORK/d3" \
    -peers "$PEERS" -replicas 3 -quorum 2 -chaos "$CHAOS" >"$WORK/n3.out" 2>&1 &
pids+=($!)

ready() {
    for i in $(seq 1 50); do
        if curl -fsS "http://127.0.0.1:$1/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "cluster_smoke: node on ops port $1 never became ready" >&2
    cat "$WORK"/*.out >&2 || true
    return 1
}
ready 8093
ready 8094
ready 8090
ready 8091
ready 8092
echo "cluster_smoke: 5 processes up (meta primary + standby, 3 storage nodes, N=3 W=2)"

# --- Phase A: chunk-plane outage -----------------------------------
# Invariant 1 (and 2 on node 1): mcsload exits non-zero on any lost or
# corrupted acknowledged file, or if node 1's under-replication gauge
# does not drain. The outage makes some operations fail outright —
# that's expected and capped by -maxfail.
echo "cluster_smoke: phase A: load with node 3 in a 200-request outage"
"$BIN/mcsload" -meta "$META" -devices 4 -files 10 -retrieve 0.5 -seed 3 \
    -ops http://127.0.0.1:8090 -waitrepair 60s -maxfail 0.5 \
    -tracedump "$WORK/client-traces-a.json"

# Invariant 2 on the other nodes: their repair queues must drain too.
# Series may carry labels (e.g. mcs_meta_standby_lag{shard="0"}), so
# the name matches as a prefix.
gauge_zero() {
    for i in $(seq 1 150); do
        v=$(curl -fsS "http://127.0.0.1:$1/metrics" | awk -v g="$2" 'index($1, g) == 1 {print $2}')
        if [ "${v:-1}" = "0" ]; then return 0; fi
        sleep 0.2
    done
    echo "cluster_smoke: $2 stuck at ${v:-?} on ops port $1" >&2
    return 1
}
gauge_zero 8091 mcs_cluster_underreplicated
gauge_zero 8092 mcs_cluster_underreplicated
echo "cluster_smoke: under-replication drained to 0 on all nodes"

# Invariant 6: node 2 withholds mcsbin/1 and sends no peer stamp, so
# nodes 1 and 3 have each proven exactly the other.
for port in 8090 8092; do
    v=$(curl -fsS "http://127.0.0.1:$port/metrics" | awk 'index($1, "mcs_cluster_peers_vouched") == 1 {print $2}')
    if [ "${v:-0}" != 1 ]; then
        echo "cluster_smoke: ops port $port vouched ${v:-0} ring peers, want 1" >&2
        exit 1
    fi
done
echo "cluster_smoke: the two mcsbin/1 nodes proved each other's peer stamps"

# --- Phase B: metadata-plane failover ------------------------------
# Invariant 3, first act: once the second load is demonstrably in
# flight (the primary has durably committed several phase-B files),
# SIGKILL the metadata primary and do NOT restart it. The standby's
# 2s lease expires and it promotes itself; the load — whose clients
# know both endpoints — finishes against the new primary with every
# acked file intact.
# Commit counter on the given ops port; the series carries a shard
# label, so the selector matches up to the op label only.
meta_commits() {
    curl -fsS "http://127.0.0.1:$1/metrics" 2>/dev/null |
        grep '^mcs_meta_op_seconds_count{op="commit"' | awk '{print $2}'
}
meta_status() { curl -fsS "$1/v1/meta/wal/status" 2>/dev/null; }
base=$(meta_commits 8093 || echo 0)
echo "cluster_smoke: phase B: load with a mid-load metadata kill, no restart (commit count starts at ${base:-0})"
# Writes fail hard inside the promotion gap (neither node takes
# them — that is the consistency side of the fencing design), so the
# file count gives the run enough post-failover successes to stay
# inside -maxfail.
"$BIN/mcsload" -meta "$META,$METASTBY" -devices 4 -files 12 -retrieve 0.5 -seed 5 \
    -maxfail 0.6 -tracedump "$WORK/client-traces-b.json" &
LOAD=$!

killed=0
for i in $(seq 1 300); do
    c=$(meta_commits 8093 || true)
    if [ "${c:-0}" -ge $((${base:-0} + 5)) ] 2>/dev/null; then
        kill -9 "$MPID"
        echo "cluster_smoke: SIGKILLed metadata primary after $((c - base)) phase-B commits"
        killed=1
        break
    fi
    sleep 0.1
done
if [ "$killed" != 1 ]; then
    echo "cluster_smoke: metadata kill never triggered (load too fast or primary down)" >&2
    exit 1
fi

# The standby must self-promote: status flips standby:false and the
# fencing epoch goes positive, all within a few lease TTLs.
promoted=0
for i in $(seq 1 100); do
    st=$(meta_status "$METASTBY" || true)
    if echo "$st" | grep -q '"standby":true'; then :; elif echo "$st" | grep -q '"epoch":[1-9]'; then
        promoted=1
        break
    fi
    sleep 0.2
done
if [ "$promoted" != 1 ]; then
    echo "cluster_smoke: standby never promoted itself (status: $(meta_status "$METASTBY"))" >&2
    cat "$WORK/s.out" >&2 || true
    exit 1
fi
NEWEPOCH=$(meta_status "$METASTBY" | grep -o '"epoch":[0-9]*' | cut -d: -f2)
echo "cluster_smoke: standby self-promoted to primary at epoch $NEWEPOCH"

wait $LOAD
echo "cluster_smoke: phase B load survived the failover (0 lost, 0 corrupted, primary never restarted)"

# Invariant 3, second act: the deposed primary comes back from its own
# WAL believing it is a primary at the old epoch. Its first write
# request carrying the new epoch must be rejected with the typed
# fencing error — not silently applied onto a forked history.
start_meta_primary 2
ready 8093
grep "durable metadata" "$WORK/m2.out" | sed 's/^/cluster_smoke: /'
fence=$(curl -sS -X POST "$META/v1/meta/store-check" \
    -H "Content-Type: application/json" -H "X-MCS-Meta-Epoch: $NEWEPOCH" \
    -d '{"user_id":1,"name":"fence-probe","size":1,"file_md5":"d41d8cd98f00b204e9800998ecf8427e"}')
if ! echo "$fence" | grep -q '"code":"fenced"'; then
    echo "cluster_smoke: deposed primary accepted a write instead of fencing: $fence" >&2
    exit 1
fi
echo "cluster_smoke: deposed primary fenced its first write (code=fenced)"

# Invariant 3, third act: the old primary rejoins as a standby of the
# new primary, reseeds across the epoch boundary, and drains its
# replication lag to 0.
kill -9 "$MPID" 2>/dev/null || true
sleep 0.5
"$BIN/mcsserver" -meta :8070 -frontends "" -ops :8093 -log "$WORK/m3.log" \
    -metadata-dir "$WORK/meta" -metacheckpoint 2s -metafrontends "$PEERS" \
    -metastandby "$METASTBY" \
    >"$WORK/m3.out" 2>&1 &
pids+=($!)
ready 8093
gauge_zero 8093 mcs_meta_standby_lag
st=$(meta_status "$META")
if ! echo "$st" | grep -q '"standby":true'; then
    echo "cluster_smoke: old primary did not rejoin as standby: $st" >&2
    exit 1
fi
echo "cluster_smoke: old primary rejoined as standby of the new primary (lag 0, epoch $(echo "$st" | grep -o '"epoch":[0-9]*' | cut -d: -f2))"

# Invariant 4: placement is already correct, so the rebalancer is a
# no-op (it exits non-zero on any transfer error).
"$BIN/mcsrebalance" -node "$N1"

# Invariant 5: join both loaders' traces with every storage node's
# ring and demand a complete stage decomposition for each acked
# transfer — a single missed header propagation anywhere fails the
# run. (The killed primary's span ring died with it; chunk-transfer
# joins live on the storage nodes and the loaders, so the gate still
# has teeth.)
"$BIN/mcstrace" -strict \
    -from "http://127.0.0.1:8090,http://127.0.0.1:8091,http://127.0.0.1:8092,$WORK/client-traces-a.json,$WORK/client-traces-b.json"

# --- Phase C: sharded metadata plane -------------------------------
# A second, independent cluster on fresh ports runs the metadata
# plane as TWO shards, each a durable primary with a lease-failover
# standby, all four processes sharing one -metashards map. Storage
# nodes route each user's metadata to the owning shard's current
# primary; clients fetch the shard map from any bootstrap endpoint.
CMETA0=http://127.0.0.1:8170
CSTBY0=http://127.0.0.1:8171
CMETA1=http://127.0.0.1:8172
CSTBY1=http://127.0.0.1:8173
CSHARDS="$CMETA0,$CSTBY0;$CMETA1,$CSTBY1"
C1=http://127.0.0.1:8181
C2=http://127.0.0.1:8182
C3=http://127.0.0.1:8183
CPEERS="$C1,$C2,$C3"

"$BIN/mcsserver" -meta :8170 -frontends "" -ops :8193 -log "$WORK/cm0.log" \
    -metadata-dir "$WORK/cmeta0" -metacheckpoint 2s -metafrontends "$CPEERS" \
    -metashards "$CSHARDS" -metashard 0 >"$WORK/cm0.out" 2>&1 &
pids+=($!)
"$BIN/mcsserver" -meta :8171 -frontends "" -ops :8194 -log "$WORK/cs0.log" \
    -metadata-dir "$WORK/cstby0" -metastandby "$CMETA0" -metafrontends "$CPEERS" \
    -metafailover 2s -metapeers "$CMETA0" \
    -metashards "$CSHARDS" -metashard 0 >"$WORK/cs0.out" 2>&1 &
pids+=($!)
"$BIN/mcsserver" -meta :8172 -frontends "" -ops :8195 -log "$WORK/cm1.log" \
    -metadata-dir "$WORK/cmeta1" -metacheckpoint 2s -metafrontends "$CPEERS" \
    -metashards "$CSHARDS" -metashard 1 >"$WORK/cm1.out" 2>&1 &
C1PID=$!
pids+=($C1PID)
"$BIN/mcsserver" -meta :8173 -frontends "" -ops :8196 -log "$WORK/cs1.log" \
    -metadata-dir "$WORK/cstby1" -metastandby "$CMETA1" -metafrontends "$CPEERS" \
    -metafailover 2s -metapeers "$CMETA1" \
    -metashards "$CSHARDS" -metashard 1 >"$WORK/cs1.out" 2>&1 &
pids+=($!)

# -meta "" keeps these nodes pure front-ends: with -metashards set
# they route every metadata call to the owning shard's primary.
for p in 8181 8182 8183; do
    "$BIN/mcsserver" -frontends ":$p" -meta "" -metashards "$CSHARDS" -ops ":$((p + 9))" \
        -log "$WORK/cn$p.log" -data "$WORK/cd$p" \
        -peers "$CPEERS" -replicas 3 -quorum 2 >"$WORK/cn$p.out" 2>&1 &
    pids+=($!)
done
ready 8193
ready 8194
ready 8195
ready 8196
ready 8190
ready 8191
ready 8192
echo "cluster_smoke: phase C: 7 processes up (2 metadata shards, each primary+standby, 3 storage nodes)"

# Mid-load, SIGKILL shard 1's primary (no restart): shard 1 must fail
# over to its standby while shard 0's primary keeps serving, and no
# acked file may be lost anywhere. Clients know all four metadata
# endpoints; the fetched shard map routes each user to the owner.
"$BIN/mcsload" -meta "$CMETA0,$CSTBY0,$CMETA1,$CSTBY1" -devices 4 -files 12 \
    -retrieve 0.5 -seed 9 -maxfail 0.6 \
    -tracedump "$WORK/client-traces-c.json" &
CLOAD=$!

killed=0
for i in $(seq 1 300); do
    c=$(meta_commits 8195 || true)
    if [ "${c:-0}" -ge 3 ] 2>/dev/null; then
        kill -9 "$C1PID"
        echo "cluster_smoke: SIGKILLed shard 1's metadata primary after $c shard-1 commits"
        killed=1
        break
    fi
    sleep 0.1
done
if [ "$killed" != 1 ]; then
    echo "cluster_smoke: shard 1 kill never triggered (no shard-1 commits observed)" >&2
    exit 1
fi

promoted=0
for i in $(seq 1 100); do
    st=$(meta_status "$CSTBY1" || true)
    if echo "$st" | grep -q '"standby":true'; then :; elif echo "$st" | grep -q '"epoch":[1-9]'; then
        promoted=1
        break
    fi
    sleep 0.2
done
if [ "$promoted" != 1 ]; then
    echo "cluster_smoke: shard 1 standby never promoted itself (status: $(meta_status "$CSTBY1"))" >&2
    cat "$WORK/cs1.out" >&2 || true
    exit 1
fi
echo "cluster_smoke: shard 1 standby self-promoted (epoch $(meta_status "$CSTBY1" | grep -o '"epoch":[0-9]*' | cut -d: -f2))"

wait $CLOAD
echo "cluster_smoke: phase C load survived the shard-1 failover (0 lost, 0 corrupted)"

# Shard 0 must be untouched by its neighbor's failover: still the
# primary it started as, unfenced, at its original epoch 0.
st=$(meta_status "$CMETA0")
if echo "$st" | grep -q '"standby":true\|"fenced":true'; then
    echo "cluster_smoke: shard 0 primary disturbed by shard 1's failover: $st" >&2
    exit 1
fi
echo "cluster_smoke: shard 0 primary unaffected ($(meta_commits 8193) commits served)"

# Fencing is per shard: the deposed shard-1 primary comes back from
# its own WAL at the old epoch, and its first write carrying shard
# 1's new epoch must be rejected with the typed fenced error (user 1
# hashes to shard 1, so the probe reaches the write guard, not the
# shard guard).
CEPOCH=$(meta_status "$CSTBY1" | grep -o '"epoch":[0-9]*' | cut -d: -f2)
"$BIN/mcsserver" -meta :8172 -frontends "" -ops :8195 -log "$WORK/cm2.log" \
    -metadata-dir "$WORK/cmeta1" -metacheckpoint 2s -metafrontends "$CPEERS" \
    -metashards "$CSHARDS" -metashard 1 >"$WORK/cm2.out" 2>&1 &
pids+=($!)
ready 8195
fence=$(curl -sS -X POST "$CMETA1/v1/meta/store-check" \
    -H "Content-Type: application/json" -H "X-MCS-Meta-Epoch: $CEPOCH" \
    -d '{"user_id":1,"name":"fence-probe","size":1,"file_md5":"d41d8cd98f00b204e9800998ecf8427e"}')
if ! echo "$fence" | grep -q '"code":"fenced"'; then
    echo "cluster_smoke: deposed shard-1 primary accepted a write instead of fencing: $fence" >&2
    exit 1
fi
echo "cluster_smoke: deposed shard-1 primary fenced its first write (code=fenced), shard 0 never involved"

# Namespace placement audit: every user on the shard the map assigns
# (exit 1 on any misplaced namespace or unreachable shard).
"$BIN/mcsrebalance" -meta -node "$CMETA0" -verify

# Strict trace gate over the sharded cluster's storage nodes and the
# loader's dump (shard 1's killed primary took its span ring with it;
# chunk-transfer joins live on the storage nodes and the loader).
"$BIN/mcstrace" -strict \
    -from "http://127.0.0.1:8190,http://127.0.0.1:8191,http://127.0.0.1:8192,$WORK/client-traces-c.json"

echo "cluster_smoke: PASS"

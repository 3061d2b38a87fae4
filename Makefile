# Convenience targets. CI (.github/workflows/ci.yml) runs `dune build @all`
# and `dune runtest` directly, then several of the smoke targets below;
# `make check` is the local equivalent of its first two steps.

.PHONY: all build test check golden-cell obs-snapshot snapshot chaos reconfig shard bench-shard applyscale netscale backendscale control autoscale clean

all: build

build:
	dune build @all

test:
	dune runtest

check: build test

# The benchmark's synth-hover cell at its reference rate, pinned byte for
# byte: stdout and the --metrics snapshot must match test/golden/. A
# simulator change that is meant to leave the model alone must pass this
# untouched; one that moves it regenerates both files deliberately.
golden-cell:
	dune exec bin/hovercraft.exe -- run -m hover -n 3 -r 800000 -d 300 \
	  --metrics hover-cell.json > hover-cell.out
	cmp hover-cell.out test/golden/hover-cell.out
	cmp hover-cell.json test/golden/hover-cell.json

# End-to-end observability smoke: a lossy HovercRaft run that must
# converge and emit hovercraft_snapshot.json.
obs-snapshot:
	dune exec bench/main.exe -- snapshot

# Snapshot/compaction smoke: crash a follower, run past the retention
# window, restart it; the follower must rejoin via Install_snapshot with
# a compacted leader log. Exits non-zero on any checker violation.
snapshot:
	dune exec bin/hovercraft.exe -- snapshot --seed 4 --duration-ms 1500

# Seeded chaos smoke: kill/restart/partition schedule under load; the
# history checker makes the command exit non-zero on any violation.
chaos:
	dune exec bin/hovercraft.exe -- chaos --seed 4 --duration-ms 1500

# Membership-change smoke: grow 3->5 under load, transfer leadership,
# remove the old leader, crash-and-restart a follower; exits non-zero on
# any history-checker violation or a wedged recovery.
reconfig:
	dune exec bin/hovercraft.exe -- reconfig --seed 4 --duration-ms 2000

# Multi-Raft sharding smoke: 4 groups / 2 active, split both onto the
# dormant targets and rebalance slots back with a live move_shard, all
# under sustained YCSB-B load; exits non-zero on any per-group or
# cross-map history-checker violation.
shard:
	dune exec bin/hovercraft.exe -- shard --seed 4 --duration-ms 1500

# kRPS-under-SLO vs shard count on a fixed per-host budget (YCSB-B).
bench-shard:
	dune exec bench/main.exe -- shardscale

# YCSB-A kRPS-under-SLO vs apply threads (K in 1,2,4,8) with the
# byte-identical-replica confirmation run at each knee.
applyscale:
	dune exec bench/main.exe -- applyscale

# YCSB-B kRPS-under-SLO vs net-path stage count (net_stages in 1,2,4),
# plus applyscale re-run under the pipelined net; exits non-zero if the
# pipelined knee regresses below the serial knee or any replica set
# diverges.
netscale:
	dune exec bench/main.exe -- netscale

# Ordering-backend shootout (raft vs rabia on the same HovercRaft cell):
# fault-free kRPS-under-SLO knee, p99 across a mid-run leader/replica
# kill, and the outage length; exits non-zero if any surviving replica
# set diverges.
backendscale:
	dune exec bench/main.exe -- backendscale

# Control-plane smoke: the flagship hotspot-drift scenario with the
# SLO-driven controller attached; per-window verdicts plus the full
# history-checker battery. Exits non-zero if the SLO fraction is missed
# or any checker trips.
control:
	dune exec bin/hovercraft.exe -- control hotspot-drift --seed 11 \
	  --out hovercraft_control.json

# The autoscaling figure: same scenario and seed, controller off vs on.
# The baseline must violate the SLO, the controller run must hold it,
# and every safety checker must stay green in both runs.
autoscale:
	dune exec bench/main.exe -- autoscale

clean:
	dune clean

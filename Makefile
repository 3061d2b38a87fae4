# Convenience targets. CI (.github/workflows/ci.yml) runs `dune build @all`
# and `dune runtest` directly, then several of the smoke targets below;
# `make check` is the local equivalent of its first two steps.

.PHONY: all build test check golden-cell golden-control golden-modes golden-chaos golden-repro golden-ycsb obs-snapshot snapshot chaos reconfig shard bench-shard applyscale netscale backendscale control autoscale clean

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

# The sharded stack and the control plane pinned byte for byte: three
# co-located groups each lose a replica and the controller repairs them
# (membership change, snapshot catch-up of the added nodes, completion
# records shipped in checkpoints), and a slow-but-alive leader that the
# controller answers with leadership transfers (the only scheduled
# link-delay fault; it holds 6 of 18 windows, so the SLO gate is off).
# Each outcome JSON must match test/golden/; like golden-cell, a change
# meant to leave the model alone passes it untouched.
golden-control:
	dune exec bin/hovercraft.exe -- control correlated-failure --seed 11 \
	  --out control-correlated.json
	cmp control-correlated.json test/golden/control-correlated.json
	dune exec bin/hovercraft.exe -- control slow-node --seed 11 \
	  --require-slo 0 --out control-slow.json
	cmp control-slow.json test/golden/control-slow.json

# One cell per ordering arm pinned byte for byte: unreplicated, vanilla
# Raft, Hover++ with flow control, and HovercRaft over the Rabia backend
# with checkpoints. Stdout and the --metrics snapshot of each must match
# test/golden/modes-*; outputs go under _build/golden-modes/.
GOLDEN_MODES = _build/golden-modes
RUN_MODE = dune exec bin/hovercraft.exe -- run -d 300

golden-modes:
	mkdir -p $(GOLDEN_MODES)
	$(RUN_MODE) -m unrep -n 1 -r 400000 \
	  --metrics $(GOLDEN_MODES)/unrep.json > $(GOLDEN_MODES)/unrep.out
	$(RUN_MODE) -m vanilla -n 3 -r 200000 \
	  --metrics $(GOLDEN_MODES)/vanilla.json > $(GOLDEN_MODES)/vanilla.out
	$(RUN_MODE) -m hoverpp -n 3 -r 400000 --flow-cap 64 \
	  --metrics $(GOLDEN_MODES)/hoverpp.json > $(GOLDEN_MODES)/hoverpp.out
	$(RUN_MODE) -m hover -n 3 --backend rabia -r 100000 --snapshot-interval 1000 \
	  --metrics $(GOLDEN_MODES)/rabia.json > $(GOLDEN_MODES)/rabia.out
	for c in unrep vanilla hoverpp rabia; do \
	  cmp $(GOLDEN_MODES)/$$c.out test/golden/modes-$$c.out || exit 1; \
	  cmp $(GOLDEN_MODES)/$$c.json test/golden/modes-$$c.json || exit 1; \
	done

# The fault-run family pinned byte for byte. The seeded chaos schedule
# (leader kills and restarts under load) drives same-rid client
# retransmissions, flow control and body recovery, none of which the
# cells above reach; the scripted membership change, the snapshot
# catch-up, the Rabia backend under snapshots, compacting membership
# churn and shard-tagged faults on the sharded stack cover the rest of
# the harness; `make chaos`'s run and three chaos seeds under parallel
# apply and the pipelined net path (with and without snapshots) pin the
# checker across the knob space. Stdout of each must match
# test/golden/<name>.out; outputs go under _build/golden-chaos/. A
# nonzero exit fails the target too.
GOLDEN_CHAOS = _build/golden-chaos
HC = dune exec bin/hovercraft.exe --

golden-chaos:
	mkdir -p $(GOLDEN_CHAOS)
	$(HC) chaos --seed 4 --duration-ms 1000 > $(GOLDEN_CHAOS)/chaos-seed4.out
	$(HC) reconfig --seed 4 --duration-ms 2000 \
	  > $(GOLDEN_CHAOS)/reconfig-seed4.out
	$(HC) snapshot --seed 4 --duration-ms 1500 \
	  > $(GOLDEN_CHAOS)/snapshot-seed4.out
	$(HC) chaos --backend rabia --seed 4 --duration-ms 1500 \
	  --snapshot-interval 1000 > $(GOLDEN_CHAOS)/chaos-rabia-seed4.out
	$(HC) chaos --seed 4 --duration-ms 1500 --reconfig \
	  --snapshot-interval 1000 > $(GOLDEN_CHAOS)/chaos-reconfig-seed4.out
	$(HC) shard --seed 4 --duration-ms 1500 --events 2 \
	  > $(GOLDEN_CHAOS)/shard-events2-seed4.out
	$(HC) chaos --seed 4 --duration-ms 1500 \
	  > $(GOLDEN_CHAOS)/chaos-1500ms-seed4.out
	$(HC) chaos --seed 3 --duration-ms 1500 --snapshot-interval 1000 \
	  --apply-threads 4 > $(GOLDEN_CHAOS)/chaos-apply4-snap-seed3.out
	$(HC) chaos --seed 5 --duration-ms 1500 --net-stages 4 --apply-threads 4 \
	  > $(GOLDEN_CHAOS)/chaos-net4-apply4-seed5.out
	$(HC) chaos --seed 6 --duration-ms 1500 --net-stages 2 \
	  --snapshot-interval 1000 > $(GOLDEN_CHAOS)/chaos-net2-snap-seed6.out
	for f in chaos-seed4 reconfig-seed4 snapshot-seed4 chaos-rabia-seed4 \
	  chaos-reconfig-seed4 shard-events2-seed4 chaos-1500ms-seed4 \
	  chaos-apply4-snap-seed3 chaos-net4-apply4-seed5 chaos-net2-snap-seed6; do \
	  cmp $(GOLDEN_CHAOS)/$$f.out test/golden/$$f.out || exit 1; \
	done

# The experiment front end pinned byte for byte: Table 1, Figures 11 and
# 12 (fig12 prints the bucket-series table chaos and failover share) and
# the two CI sanity probes. Stdout of each `hovercraft repro NAME` must
# match test/golden/repro-NAME.out; outputs go under _build/golden-repro/.
GOLDEN_REPRO = _build/golden-repro
REPRO = dune exec bin/hovercraft.exe -- repro

golden-repro:
	mkdir -p $(GOLDEN_REPRO)
	for e in table1 fig11 fig12 netscale-sanity backendscale-sanity; do \
	  $(REPRO) $$e > $(GOLDEN_REPRO)/$$e.out || exit 1; \
	  cmp $(GOLDEN_REPRO)/$$e.out test/golden/repro-$$e.out || exit 1; \
	done

# The keyed workload generators pinned byte for byte through the whole
# stack: YCSB-E (scan/insert conversation threads) on a Hover++ cell,
# stdout and --metrics snapshot, and YCSB-B with its preload on the
# sharded stack (splits and a live slot move). Outputs go under
# _build/golden-ycsb/ at a fixed path, since stdout echoes the metrics
# path; each must match test/golden/ycsb-*.
GOLDEN_YCSB = _build/golden-ycsb

golden-ycsb:
	mkdir -p $(GOLDEN_YCSB)
	dune exec bin/hovercraft.exe -- run -m hoverpp -n 3 --ycsb -r 50000 -d 200 \
	  --metrics $(GOLDEN_YCSB)/ycsb-e.json > $(GOLDEN_YCSB)/ycsb-e.out
	dune exec bin/hovercraft.exe -- shard --seed 4 --duration-ms 1500 \
	  > $(GOLDEN_YCSB)/ycsb-shard.out
	for f in ycsb-e.out ycsb-e.json ycsb-shard.out; do \
	  cmp $(GOLDEN_YCSB)/$$f test/golden/$$f || exit 1; \
	done

# End-to-end observability smoke: a lossy HovercRaft run that must
# converge and emit hovercraft_snapshot.json.
obs-snapshot:
	$(REPRO) snapshot

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
	$(REPRO) shardscale

# YCSB-A kRPS-under-SLO vs apply threads (K in 1,2,4,8) with the
# byte-identical-replica confirmation run at each knee.
applyscale:
	$(REPRO) applyscale

# YCSB-B kRPS-under-SLO vs net-path stage count (net_stages in 1,2,4),
# plus applyscale re-run under the pipelined net; exits non-zero if the
# pipelined knee regresses below the serial knee or any replica set
# diverges.
netscale:
	$(REPRO) netscale

# Ordering-backend shootout (raft vs rabia on the same HovercRaft cell):
# fault-free kRPS-under-SLO knee, p99 across a mid-run leader/replica
# kill, and the outage length; exits non-zero if any surviving replica
# set diverges.
backendscale:
	$(REPRO) backendscale

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
	$(REPRO) autoscale

clean:
	dune clean

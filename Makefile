.PHONY: all build test fmt doc lint-loops lint-globals ci bench chaos-smoke \
	bench-guard replay-smoke vfs-smoke cluster-smoke gray-smoke

all: build

build:
	dune build @all

test:
	dune runtest

# Format check gates on ocamlformat being installed: the tree must
# still build and test in environments that don't ship it.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

doc:
	dune build @doc

# Service loops belong on lib/svc: a hand-rolled `Chan.recv` request
# loop in the service layers bypasses the uniform overload policies
# and queue metrics.  Allowlisted files hold the loops that are not
# request/reply services: the fabric's wire and NIC delivery loops,
# the stack's frame demux fibers, the supervisor's restart
# control-plane, the cluster node's park channel, and the client's
# pipeline window (a bounded-capacity semaphore, not a request loop).
LINT_LOOP_DIRS := lib/kernel lib/net lib/cluster lib/obs lib/fsspec lib/vfs
LINT_LOOP_ALLOW := \
	lib/kernel/supervisor.ml \
	lib/net/fabric.ml \
	lib/net/stack.ml \
	lib/cluster/cluster.ml \
	lib/cluster/client.ml

lint-loops:
	@bad=$$(grep -rn --include='*.ml' 'Chan\.recv\b' $(LINT_LOOP_DIRS) \
		| grep -v $(foreach f,$(LINT_LOOP_ALLOW),-e '^$(f):') || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-loops: hand-rolled Chan.recv service loop outside lib/svc:"; \
		echo "$$bad"; \
		echo "port it to Svc.serve / Svc.serve_cast, or allowlist it in the Makefile"; \
		exit 1; \
	else \
		echo "lint-loops: OK"; \
	fi

# Domain-safety gate: no new top-level mutable globals in lib/.  The
# Ctx refactor moved every process-global (Inspect registry, metrics,
# trace factory, crash points) into per-run contexts so N engines can
# run concurrently on N domains; a fresh `let x = ref ...` at module
# top level would silently re-introduce cross-run sharing.  Allowlist
# files that earn an exception (none today); Atomic.make is deliberately
# not matched — atomics are how intentional cross-domain state is spelt.
LINT_GLOBAL_ALLOW :=

lint-globals:
	@bad=$$(grep -rnE --include='*.ml' \
		"^let [a-z_][a-zA-Z0-9_']*( *:[^=]*)? = (ref |Hashtbl\.create|Queue\.create|Buffer\.create|Array\.make)" \
		lib/ \
		| grep -v $(foreach f,$(LINT_GLOBAL_ALLOW),-e '^$(f):') -e '^$$' \
		|| true); \
	if [ -n "$$bad" ]; then \
		echo "lint-globals: top-level mutable global in lib/ (breaks domain-safety):"; \
		echo "$$bad"; \
		echo "bind it in a Chorus.Ctx slot (per-run) or allowlist it in the Makefile"; \
		exit 1; \
	else \
		echo "lint-globals: OK"; \
	fi

bench:
	dune exec bench/main.exe

# A small seeded chaos campaign plus the oracle selftest (~2s): every
# fault kind gets explored, every oracle must stay green, and the
# planted violation must be caught.  Exit 1 on any oracle violation,
# 2 if the selftest fails.  --domains 0 shards the campaign across
# every available core (auto-detected, so a single-core CI host runs
# it sequentially at unchanged cost); the merged report is
# byte-identical at any width.  The second campaign is a wide disk
# sweep (~2s): it is the one that found the block cache shard dying
# on an exhausted read retry and leaving the store hung.
chaos-smoke:
	dune exec bin/chorus_sim.exe -- chaos --disk-runs 30 --kv-runs 6 \
		--selftest --domains 0
	dune exec bin/chorus_sim.exe -- chaos --disk-runs 4000 --kv-runs 0 \
		--seed 1 --domains 0

# Cluster hot-path gate: E24 end-to-end (open-loop Zipf load through
# client pipelining, group-commit batching and leader leases) plus a
# lease-focused chaos campaign — leader kills and partition-ish fabric
# windows with the linearizability oracle vetoing stale leased reads.
cluster-smoke:
	@dune exec bin/chorus_sim.exe -- run e24 > _build/cluster_smoke.txt \
		|| { cat _build/cluster_smoke.txt; exit 1; }; \
	echo "cluster-smoke: e24 OK"; \
	dune exec bin/chorus_sim.exe -- chaos --disk-runs 0 --kv-runs 0 \
		--lease-runs 8 --seed 11

# Gray-failure gate: a short gray chaos campaign (per-link delay and
# asymmetric partition windows against breaker/deadline clients; the
# fail-fast liveness oracle runs beside linearizability and both must
# stay green) plus a pinned mid-window gray replay snapshot diffed
# byte-for-byte against the checked-in golden (regenerate with the
# second command below if a format change is intentional).
GRAY_SCHED := seed=11 link-delay(0>1,p=0.65,200000cy)@1150000+600000 partition(2>0)@1300000+400000
gray-smoke:
	@dune exec bin/chorus_sim.exe -- chaos --disk-runs 0 --kv-runs 0 \
		--gray-runs 12 --seed 11; \
	dune exec bin/chorus_sim.exe -- replay --scenario gray \
		--schedule '$(GRAY_SCHED)' --at 1500000 > _build/gray_smoke.txt; \
	if ! diff -u test/golden/replay_gray_t1500000.txt _build/gray_smoke.txt; then \
		echo "gray-smoke: snapshot drifted from the golden (diff above)"; \
		exit 1; \
	fi; \
	echo "gray-smoke: OK"

# Compare the committed BENCH_*.json baselines against a fresh
# regeneration of their deterministic fields, and schema-check a fresh
# BENCH_obs.json (host timings, not committed).
bench-guard:
	scripts/bench_guard

# Time-travel replay determinism gate: replay a pinned chaos schedule
# (a known kill-point reproducer) to a fixed virtual time and require
# the snapshot to match the checked-in golden byte-for-byte, then diff
# the schedule against its one-fault-dropped neighbour and require a
# first-divergence report.  Catches both nondeterminism regressions
# and accidental snapshot format drift (regenerate the golden with the
# first command below if the drift is intentional).
REPLAY_SCHED := seed=69 kill-point(chaos.store)@386220+78492 kill-point(chaos.store)@319877+182563
replay-smoke:
	@dune exec bin/chorus_sim.exe -- replay --scenario disk \
		--schedule '$(REPLAY_SCHED)' --at 300000 > _build/replay_smoke.txt; \
	if ! diff -u test/golden/replay_disk_t300000.txt _build/replay_smoke.txt; then \
		echo "replay-smoke: snapshot drifted from the golden (diff above)"; \
		exit 1; \
	fi; \
	dune exec bin/chorus_sim.exe -- replay --scenario disk \
		--schedule '$(REPLAY_SCHED)' --at 450000 --diff --drop 1 \
		| grep -q 'first diverging trace event' \
		|| { echo "replay-smoke: --diff reported no divergence"; exit 1; }; \
	echo "replay-smoke: OK"

# Projected-FS gate: a small provider-kill chaos campaign (the
# placeholder-invariant, recovery and quiescence oracles must all stay
# green) plus a pinned mid-kill replay snapshot diffed byte-for-byte
# against the checked-in golden (regenerate with the second command
# below if a format change is intentional).
PROJFS_SCHED := seed=100 kill-provider@445828+264255 loss(p=0.10)@890934+434520 loss(p=0.40)@992553+494499
vfs-smoke:
	@dune exec bin/chorus_sim.exe -- chaos --disk-runs 0 --kv-runs 0 \
		--projfs-runs 10 --seed 7; \
	dune exec bin/chorus_sim.exe -- replay --scenario projfs \
		--schedule '$(PROJFS_SCHED)' --at 500000 > _build/vfs_smoke.txt; \
	if ! diff -u test/golden/replay_projfs_t500000.txt _build/vfs_smoke.txt; then \
		echo "vfs-smoke: snapshot drifted from the golden (diff above)"; \
		exit 1; \
	fi; \
	echo "vfs-smoke: OK"

ci: build test fmt doc lint-loops lint-globals chaos-smoke replay-smoke \
	vfs-smoke cluster-smoke gray-smoke bench-guard

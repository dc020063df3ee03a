# Tier-1 gate: everything must build, vet clean, and pass the full test
# suite with the race detector on (the parallel experiment runner makes the
# whole suite a concurrency test).
.PHONY: check build vet test race bench bench-hotpath bench-save bench-compare audit golden fuzz gencorpus

check: build vet race

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race -timeout 45m ./...

# Conservation audit over every artifact: the end-of-run auditor (which
# always runs and panics on violation) plus its coverage summary per
# experiment. A clean pass proves packet conservation, stream continuity,
# trace agreement, and capture bounds across the whole reproduction.
audit:
	go run ./cmd/svrlab all -seed 42 -repeats 1 -audit

# Golden artifact gate: regenerate every seed-42 artifact and require it to
# match the checked-in artifacts_seed42.txt byte for byte, printing the diff
# when it does not. The sweep runs at the CLI's default worker count,
# GOMAXPROCS, so `GOMAXPROCS=1 make golden` checks the single-worker path.
golden:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	go run ./cmd/svrlab all -seed 42 -repeats 1 > "$$out" || exit 1; \
	if cmp -s artifacts_seed42.txt "$$out"; then \
		echo "golden: artifacts_seed42.txt reproduced byte for byte"; \
	else \
		diff artifacts_seed42.txt "$$out"; \
		echo "golden: regenerated artifacts differ from artifacts_seed42.txt"; \
		exit 1; \
	fi

# Fuzz every wire codec — plus the scheduler's differential ordering
# target — for FUZZTIME each (DESIGN.md "The codec hardening contract",
# §4.12). Native Go fuzzing takes one target per invocation, so the
# loop enumerates targets with -list and runs them back to back. Crashers
# land in testdata/fuzz/<Target>/ and replay forever after in plain
# `go test` via the corpus-replay tests. CI runs this with a short
# FUZZTIME as a smoke pass; use FUZZTIME=60s locally before merging codec
# changes.
FUZZTIME ?= 10s
FUZZPKGS = ./internal/packet ./internal/avatar ./internal/platform ./internal/capture ./internal/chaos ./internal/secure ./internal/simtime

fuzz:
	@set -e; for pkg in $(FUZZPKGS); do \
		for target in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "=== fuzz $$pkg $$target ($(FUZZTIME))"; \
			go test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Regenerate the checked-in fuzz seed corpora (deterministic; a no-op diff
# on an unchanged tree).
gencorpus:
	go run ./internal/wiretest/gencorpus

# The full paper reproduction: one benchmark per table/figure.
bench:
	go test -bench=. -benchmem

# Per-packet micro-benchmarks (bench_hotpath_test.go): fabric forwarding,
# wire serialization, metric handles, capture ingest. The allocs/op column
# is the regression contract — see DESIGN.md "The packet hot path".
bench-hotpath:
	go test -run '^$$' -bench=Hotpath -benchmem .

# Same runs, archived: newline-delimited go-test JSON events, one file per
# day, for tracking perf drift across PRs. Archives the figure-level suite
# and the hot-path suite side by side.
bench-save:
	go test -json -bench=. -benchmem > BENCH_$$(date +%Y%m%d).json
	go test -json -run '^$$' -bench=Hotpath -benchmem . > BENCH_HOTPATH_$$(date +%Y%m%d).json

# Perf drift gate: run the hot-path suite fresh and diff it against the
# most recent archived BENCH_HOTPATH_*.json (cmd/benchcompare). Fails on
# ns/op regressions beyond the tool's threshold or any allocs/op increase.
bench-compare:
	go test -json -run '^$$' -bench=Hotpath -benchmem . > /tmp/bench_hotpath_current.json
	go run ./cmd/benchcompare /tmp/bench_hotpath_current.json

# Development targets. `make check` is what CI runs: the distrib layer
# is concurrency-heavy, so everything gates on the race detector.

.PHONY: build vet test test-race cli-contract check bench bench-compare

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

test-race:
	go test -race -timeout 600s ./...

# cli-contract diffs each binary's -h output — flag names, defaults and
# usage strings — against the recorded cmd/testdata/help/*.txt. A flag
# change is a deliberate act: re-record the file in the same commit.
cli-contract:
	@bin=$$(mktemp -d) && go build -o $$bin/ ./cmd/parbmc ./cmd/coordinator ./cmd/worker ./cmd/satsolve && \
	for b in parbmc coordinator worker satsolve; do \
		(cd $$bin && ./$$b -h 2>&1) | diff -u cmd/testdata/help/$$b.txt - || exit 1; \
	done; rm -rf $$bin

check: build vet test-race cli-contract

# bench writes the perf-trajectory point for this commit: Table 2 wall
# times plus the flight-recorder signals (conflicts, partitions,
# progress-at-solve) as BENCH_<date>.json.
bench:
	go run ./cmd/experiments -only table2 -bench-out BENCH_$$(date +%Y-%m-%d).json

# bench-compare diffs the last two committed BENCH_*.json trajectory
# points and fails on a >1.25x per-cell wall-time regression (or any
# verdict flip); cells under the 250 ms noise floor are reported but
# not gated. Run `make bench` first to add today's point; pass a fresh
# uncommitted file with CANDIDATE=path to gate it pre-commit.
bench-compare:
	go run ./cmd/experiments -compare -bench-dir . -gate 1.25 $(if $(CANDIDATE),-candidate $(CANDIDATE))

# Development targets. `make check` is what CI runs: the distrib layer
# is concurrency-heavy, so everything gates on the race detector.

.PHONY: build vet test test-race cli-contract check bench

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

# bench records this commit's point on the perf trajectory: the four
# workloads of BENCHMARK.json through the benchmark's own launcher,
# untraced (end-to-end metrics) and traced (per-layer metrics), each
# result line as the harness printed it, to
# BENCH_<date>_<commit>[-dirty].jsonl (about five minutes). The commit is
# in the name, and an existing file is refused, so that a second point
# made on the same day cannot silently replace the first. Nothing reads
# the files: a gain is claimed by the paired parent/change protocol of
# benchmark/README.md, not against these points.
bench:
	@out=BENCH_$$(date +%Y-%m-%d)_$$(git describe --always --dirty).jsonl; \
	if [ -e $$out ]; then echo "$$out exists: move it away to measure this tree again" >&2; exit 1; fi; \
	: > $$out.partial; \
	for w in proof_1core proof_partitioned quick_batch distrib_loopback; do for t in 0 1; do \
		r=$$(bash benchmark/run.sh --workload $$w --seed 7 --seconds 25 --trace $$t) || exit 1; \
		printf '{"workload":"%s","trace":%s,"result":%s}\n' $$w $$t "$$(echo "$$r" | tail -n 1)" >> $$out.partial; \
	done; done; mv $$out.partial $$out; echo "wrote $$out"

# BlindFL build and test entry points. CI (.github/workflows/ci.yml) invokes
# exactly these targets so local runs reproduce the CI lanes.

GO ?= go

.PHONY: build test test-cpu test-full test-chaos bench bench-smoke profile-dot profile-embed profile-sparse profile-serve serve-smoke shard-smoke examples fmt fmt-check vet lint lint-tools

build:
	$(GO) build ./...

# Short lane: skips the long federated-training suites (testing.Short).
# The -timeout turns a reintroduced protocol hang (e.g. RunParties stuck on
# a one-sided failure) into a fast CI failure instead of a stalled job.
test:
	$(GO) test -short -race -timeout 10m ./...

# Parallelism lane: the process-wide table cache, pool condition-variable
# wait and pool registry re-run under the race detector at 1 and
# 4 CPUs, so single-core schedules and real parallelism are both exercised.
# The dot kernel and the square-modulus multiplier under it ride along: their
# differential fuzz targets for ten seconds each from the seeded corpora (the
# multiplier's minimizer capped, as in test-chaos: its inputs are whole
# operands and shrinking one would eat the run), and their allocation guards —
# without -race, under which sync.Pool drops items at random and the guards
# skip themselves. So do the hetensor kernels built on them: FuzzKernels runs
# every kernel on random shapes, lane formats and signed values, the engine
# path against the textbook one and the plaintext — and ServeProducts, at
# fills of 1…3K requests, uncached or cached with some or all comb rows,
# against the packed-exponent reference residue for residue — for ten seconds.
# The decryption beside them too: FuzzDecryptBits decrypts a signed plaintext
# under a random bound, one CRT half or both, against the full Decrypt.
test-cpu:
	$(GO) test -short -race -timeout 10m -cpu 1,4 ./internal/paillier/ ./internal/hetensor/
	$(GO) test -race -run '^$$' -fuzz '^FuzzDotSigned$$' -fuzztime=10s ./internal/paillier/
	$(GO) test -race -run '^$$' -fuzz '^FuzzDecryptBits$$' -fuzztime=10s ./internal/paillier/
	$(GO) test -race -run '^$$' -fuzz '^FuzzKernels$$' -fuzztime=10s ./internal/hetensor/
	$(GO) test -race -run '^$$' -fuzz '^FuzzSqMod$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/paillier/
	$(GO) test -run '^Test(Dot|SqMod)AllocsConstant$$' -cpu 1,4 ./internal/paillier/

# Full lane: everything, including the ~4 min federated model suite.
test-full:
	$(GO) test -timeout 30m ./...

# Chaos lane: the run-integrity suite (docs/INTEGRITY.md) — every fault
# class (bit-flip, drop, dup, reorder, delay, mid-run kill) driven through
# the stream transport, the k-session group runtime and full federated
# training, asserting bit-exact recovery or a typed loud failure, never
# silent garbage. Race detector on: fault handling exercises the teardown
# paths where latent races live. The hostile-peer suites of the sparse and
# serve planes ride along (TestSparseHostilePeer, TestServeHostilePeer): a
# peer's row lists, row matrices, masked products and integer shares of the
# wrong range, order, shape, scale or lanes end in a typed ErrCorrupt, never
# a panic. So does the handshake's (TestHandshakeHostilePeer): a refused peer
# key fails the pipe typed, with every conn closed and no exchange left
# blocked. Then ten seconds of arbitrary link bytes
# against the one matrix receive path (FuzzRecvMatrix, seeded from the
# hostile-header table): no panic, allocation bounded by the input. The
# minimizer is capped: left at its one-minute default it spends the whole run
# shrinking the first gob stream that reaches a new branch. Then the same for
# the handshake's public key (FuzzHandshake, seeded from the hostile-key
# table: a value or a typed error, never a panic), for the other
# attacker-sized input, a checkpoint file (FuzzCheckpoint: the one reader
# and both restore halves behind it, raw and behind a valid envelope, seeded
# from a dense final and mid-run checkpoint, the checkpoints of sparse LR at
# k = 1 and k = 3, WDL and DLRM, and lying headers), for the stream ack a
# sender takes in its next receive — where a sparse step's last NACK is
# answered (FuzzStreamAck: any Seq, NACK list and checksum against retained
# streams gives the next message or a sticky ErrCorrupt, never a panic, and
# at most one retransmission per retained chunk), and for every shard-plane
# decoder (FuzzShard: the hello, ack and session-hello accepts, the setup
# document and the sealed partials, gradient, serve share and layer blobs
# give a value or a typed error, never a panic).
test-chaos:
	$(GO) test -short -race -timeout 10m \
		-run 'TestChaos|TestFault|TestStream|TestDeadline|TestRunGroupFaultConn|TestGroupAllSessionsLost|TestRetry|TestTrainHonoursEngineOptions|TestSparseHostilePeer|TestServeHostilePeer|TestHandshakeHostilePeer' \
		./internal/transport/ ./internal/protocol/ ./internal/model/ ./internal/serve/ ./internal/core/
	$(GO) test -race -run '^$$' -fuzz '^FuzzRecvMatrix$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/protocol/
	$(GO) test -race -run '^$$' -fuzz '^FuzzHandshake$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/protocol/
	$(GO) test -race -run '^$$' -fuzz '^FuzzCheckpoint$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/model/
	$(GO) test -race -run '^$$' -fuzz '^FuzzStreamAck$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/transport/
	$(GO) test -race -run '^$$' -fuzz '^FuzzShard$$' -fuzztime=10s -fuzzminimizetime=5x ./internal/protocol/

# Examples lane: compile every example, smoke-run the quickstart and the
# multi-party group runtime.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart -short
	$(GO) run ./examples/multiparty -short

# Throughput-engine benchmarks: packed/pooled encryption and the dot kernels.
bench:
	$(GO) test -run XXX -bench 'Encrypt|MulPlainLeft|PoolEnc|DotRow|MulPlainNeg' -benchtime 10x ./internal/hetensor/ ./internal/paillier/

# Bench smoke lane: every benchmark compiles and runs one iteration so
# benchmark code cannot rot. -short skips the multi-minute paper tables;
# the engine/kernel/layer-step benchmarks all execute.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x -short -timeout 15m ./...

# One-command CPU profile of the dot-product kernel at the production key
# size (BenchmarkDotGrid: the dense fed step's forward shape, fresh identity
# every iteration). Leaves dot.prof and the test binary in the working
# directory; read with `go tool pprof -top hetensor.test dot.prof`.
profile-dot:
	$(GO) test ./internal/hetensor -run '^$$' -bench 'DotGrid/2048' -benchtime 20x -benchmem -cpuprofile dot.prof

# The same for one whole Embed-MatMul step (BenchmarkEmbedStep: forward +
# backward at the embed_cat workload's geometry and 1024-bit keys, under the
# benchmark's deployment options). Leaves embed.prof and core.test; read with
# `go tool pprof -top core.test embed.prof`.
profile-embed:
	$(GO) test ./internal/core -run '^$$' -bench 'EmbedStep/1024' -benchtime 20x -benchmem -cpuprofile embed.prof

# The same for one whole sparse MatMul step (BenchmarkSparseStep: forward +
# backward at the sparse_wan workload's geometry and 1024-bit keys on a Pair —
# the compute the workload's link hides). Leaves sparse.prof and core.test;
# read with `go tool pprof -top core.test sparse.prof`.
profile-sparse:
	$(GO) test ./internal/core -run '^$$' -bench 'SparseStep/1024$$' -benchtime 20x -benchmem -cpuprofile sparse.prof

# The same for serve_batched's homomorphic half (BenchmarkServeProducts: 32
# requests × 14 features against a cached 2048-bit weight column, its comb
# rows built; the admit rows, which time the build, are not profiled). Leaves
# serve.prof and hetensor.test; read with
# `go tool pprof -top hetensor.test serve.prof`.
profile-serve:
	$(GO) test ./internal/hetensor -run '^$$' -bench 'ServeProducts/2048' -benchtime 50x -benchmem -cpuprofile serve.prof

# Shard smoke lane: two real blindfl-shard worker processes on loopback TCP
# plus a 2-shard blindfl-train run against them — the multi-process wiring
# (announce/connect, fingerprint check, deterministic schedule) exercised
# end to end on a toy job. Worker -timeout and the train deadline turn a
# wedged handshake into a fast failure instead of a hung CI job.
shard-smoke: build
	$(GO) build -o bin/blindfl-shard ./cmd/blindfl-shard
	$(GO) build -o bin/blindfl-train ./cmd/blindfl-train
	./scripts/shard-smoke.sh

# Serve smoke lane: train a toy checkpoint, bring up the blindfl-serve
# request batcher on fresh sessions, and fire the closed-loop load generator
# through it with the integrity spot-check on — once with 2 × lanes clients
# (full lane groups), once with a single client (the lone-caller path, where
# each batch closes as soon as it holds the only caller). The command exits
# non-zero on an empty, non-finite or integrity-mismatched response.
serve-smoke:
	$(GO) run ./cmd/blindfl-serve -dataset higgs -train 96 -test 48 -epochs 1 \
		-requests 48 -spotcheck -tablecache 64
	$(GO) run ./cmd/blindfl-serve -dataset higgs -train 96 -test 48 -epochs 1 \
		-workers 1 -requests 16 -spotcheck -tablecache 64

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Vet lane: stock go vet, then the repo's own invariant analyzers
# (internal/analyzers, driven by cmd/blindfl-vet over the go vet -vettool
# protocol): bigval, rngstream, teardown, lockguard, floatpure. Suppressions
# are //blindfl:allow directives only; see docs/INVARIANTS.md.
vet:
	$(GO) vet ./...
	$(GO) build -o bin/blindfl-vet ./cmd/blindfl-vet
	$(GO) vet -vettool=$(CURDIR)/bin/blindfl-vet ./...

# Pinned external linters. lint-tools installs them (network needed); lint
# skips any that are absent so offline runs still exercise blindfl-vet.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Lint lane: blindfl-vet (always), then staticcheck and govulncheck when
# installed. CI runs lint-tools first so both always run there.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (make lint-tools)"; \
	fi

GO ?= go

.PHONY: all build test race lint vet accuvet vet-fix fix fuzz-smoke bench serve service-e2e clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# lint runs the standard vet suite plus accuvet, the project's own
# sixteen-analyzer suite (determinism, concurrency, service-layer and
# durability invariants; `./bin/accuvet -list` prints them) — once
# through `go vet -vettool` exactly as CI does, and once standalone so
# metricname can see duplicate registrations across packages.
# staticcheck runs too when it is on PATH (CI pins its version).
lint: vet accuvet
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || \
		echo "staticcheck not installed; skipping (CI runs it pinned)"

vet:
	$(GO) vet ./...

# The standalone pass mirrors CI: any live finding or wire-schema drift
# fails, and the full verdict lands in bin/accuvet.sarif for inspection
# or code-scanning upload.
accuvet:
	$(GO) build -o bin/accuvet ./cmd/accuvet
	$(GO) vet -vettool=$(CURDIR)/bin/accuvet ./...
	./bin/accuvet -sarif bin/accuvet.sarif -wire-lock .accuwire.lock.json ./...

# vet-fix prints every accuvet finding — including ones already covered
# by an //accu:allow directive, marked "(allowed)" — together with the
# exact suppression comment to paste above a site that is intentional.
# Exit status matches plain accuvet: 1 only while live findings remain.
vet-fix:
	$(GO) build -o bin/accuvet ./cmd/accuvet
	./bin/accuvet -suggest ./...

# fix applies the machine-applicable suggested fixes in place (json wire
# tags, keyed wire literals, time.Tick -> time.NewTicker(d).C), atomically
# per fix and gofmt-gated per file. Running it twice is a no-op. After a
# wire-struct change, refresh the committed schema lockfile:
#   ./bin/accuvet -write-wire-lock .accuwire.lock.json ./...
fix:
	$(GO) build -o bin/accuvet ./cmd/accuvet
	./bin/accuvet -fix ./...

# fuzz-smoke runs each native fuzz target briefly against its committed
# corpus plus fresh mutations — the decoder surfaces (store block
# decoder, cell-journal resume) the analyzers cannot reach, and the
# graph builder against a map-based reference.
fuzz-smoke:
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzDecodeBlock -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzCellJournalReplay -fuzztime 10s
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzBuilder -fuzztime 10s

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# serve runs the accuserv job service on its default local address with a
# throwaway data directory under bin/.
serve:
	$(GO) run ./cmd/accuserv -data bin/accuserv-data

# service-e2e is the full crash/resume contract test: SIGKILL the server
# mid-grid, restart, and require a bit-identical result digest.
service-e2e:
	bash scripts/service_e2e.sh

clean:
	rm -rf bin

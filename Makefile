GO ?= go

.PHONY: build test vet bench bench-build bench-query bench-serve bench-update bench-load bench-load-full chaos fuzz clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Full benchmark sweep (one iteration each; see DESIGN.md §4 for E-numbers).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Construction hot-path grid + BENCH_build.json (E14).
bench-build:
	$(GO) run ./cmd/ftcbench build -json

# Probe-path grid (per-call vs compiled FaultSet) + BENCH_query.json (E15).
bench-query:
	$(GO) run ./cmd/ftcbench query -json

# Serving path (snapshot load + ftcserve handler, LRU cold vs warm) +
# BENCH_serve.json (E16).
bench-serve:
	$(GO) run ./cmd/ftcbench serve -json

# Dynamic-network update path (incremental Commit vs full rebuild, plus the
# served POST /update smoke) + BENCH_update.json (E17).
bench-update:
	$(GO) run ./cmd/ftcbench update -json

# Closed-loop serving load in smoke mode, both protocol surfaces (E18 cache
# grid + E19 json-vs-bin protocol grid) — seconds, suitable for CI and quick
# local sanity. Writes a smoke-sized BENCH_load.json; use bench-load-full to
# regenerate the checked-in one.
bench-load:
	$(GO) run ./cmd/ftcbench load -smoke -proto both -json

# The full E18+E19 load run that regenerates the checked-in BENCH_load.json
# (1M warm ops, 10k requests per protocol cell; minutes, not seconds).
bench-load-full:
	$(GO) run ./cmd/ftcbench load -proto both -json

# Chaos drill (E22): seeded fault injection over the full serving tier —
# conn resets, snapshot failures, a replica kill/restart — with every
# answer checked against a per-generation oracle and the front's
# ejection/readmit counters asserted. Two fixed seeds, smoke-sized;
# writes the chaos sections of BENCH_serve.json.
chaos:
	$(GO) run ./cmd/ftcbench chaos -smoke -json -seed=1
	$(GO) run ./cmd/ftcbench chaos -smoke -json -seed=2

# Short fuzz runs of the label and snapshot codecs and of the syndrome
# decoder (the CI smoke; drop the -fuzztime to explore for real).
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalVertexLabel' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalEdgeLabel' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeOutgoing' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalScheme' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzWireFrame' -fuzztime 10s ./internal/serve/wire
	$(GO) test -run '^$$' -fuzz 'FuzzSketchDecode' -fuzztime 10s ./internal/rs

clean:
	$(GO) clean ./...

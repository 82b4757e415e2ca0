.PHONY: all build test bench bench-quick fmt check

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# the CI profile: trimmed iteration counts, then schema-check the
# BENCH_results.json it wrote (micro-benchmarks, routing throughput
# with its route-identity check, mesh blocking, strategy comparison);
# the served layers are measured by perfbench/run.py
bench-quick:
	dune exec bench/main.exe -- --quick
	dune exec bench/main.exe -- --validate BENCH_results.json

# @fmt needs ocamlformat, which the sealed build environment may lack;
# skip gracefully rather than failing the whole check.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not found; skipping format check"; \
	fi

check: build test fmt

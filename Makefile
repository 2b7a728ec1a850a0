# Convenience entry points; everything below is plain dune.

BENCH_JSON_DIR ?= /tmp/wasp-bench-json
BENCH_GATE_FIGS ?= fig12 memshare chaos_slo translate rings

.PHONY: all check test bench bench-json bench-baselines bench-gate \
	fuzz-nightly fmt clean

all:
	dune build

# tier-1 gate: full build + every test suite, which includes every
# smoke gate and the fuzz-fixture replay (dune rules, see bin/dune)
check:
	dune build
	dune runtest

test: check

bench:
	dune exec bench/main.exe

# machine-readable results: every table also lands in BENCH_<fig>.json
bench-json:
	dune exec bench/main.exe -- --json-out $(BENCH_JSON_DIR)
	@ls $(BENCH_JSON_DIR)

# regenerate the committed bench baselines the CI gate compares against
bench-baselines:
	dune exec bench/main.exe -- $(BENCH_GATE_FIGS) --json-out bench/baselines
	@ls bench/baselines

# the CI bench-regression gate: regenerate the gated figures into a
# scratch directory and diff them against the committed baselines
bench-gate:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT INT TERM; \
	dune exec bench/main.exe -- $(BENCH_GATE_FIGS) --json-out $$d > /dev/null; \
	dune exec bin/benchdiff.exe -- --baseline bench/baselines --fresh $$d $(BENCH_GATE_FIGS)

# the nightly lane: a time-boxed campaign with a persistent corpus
# (FUZZ_BUDGET CPU-seconds, FUZZ_CORPUS carried across nights by CI)
FUZZ_BUDGET ?= 600
FUZZ_CORPUS ?= fuzz-corpus
fuzz-nightly:
	@set -u; mkdir -p $(FUZZ_CORPUS) fuzz-out; \
	dune exec bin/fuzz_cli.exe -- --time-budget $(FUZZ_BUDGET) \
	  --corpus $(FUZZ_CORPUS) --fixtures-out fuzz-out/reproducers -v \
	  > fuzz-out/nightly.log 2>&1; status=$$?; \
	cat fuzz-out/nightly.log; exit $$status

# formatting gate; skipped gracefully where ocamlformat is not installed
# (CI always runs it)
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then dune build @fmt; \
	else echo "ocamlformat not found; skipping fmt (CI enforces it)"; fi

clean:
	dune clean

#!/bin/sh
# CI entry point: build, run the full test suite, and (when ocamlformat
# is available) check formatting. Any failing step fails the script.
set -eu

cd "$(dirname "$0")"

# Fail unless FILE, minus its lines matching the extended regex
# HOST_FIELDS (the host-time fields), equals the committed copy: every
# other line is on the virtual axis, so it must not move.
virtual_axis_unchanged() {
  file=$1
  host_fields=$2
  committed=$(git show "HEAD:$file") || {
    echo "FAIL: no committed $file to compare against"
    exit 1
  }
  now=$(grep -vE "$host_fields" "$file")
  before=$(echo "$committed" | grep -vE "$host_fields")
  if [ "$now" != "$before" ]; then
    echo "FAIL: $file virtual-axis lines differ from the committed file:"
    echo "$now"
    echo "--- committed"
    echo "$before"
    exit 1
  fi
  echo "   $file virtual-axis lines identical to the committed file"
}

# Net lines of code (.ml + .mli) per tree: informational, fails
# nothing; CHANGES.md entries quote these counts.
echo "== net LOC (.ml + .mli) =="
for d in lib bin bench examples test; do
  echo "   $d $(find "$d" \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)"
done

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

# Bench smoke (DESIGN.md §6): one instrumented ngx cut + re-enable with
# the per-stage breakdown and the registry-on/registry-off overhead
# bound, written to BENCH_obs.json.
echo "== bench --quick (observability smoke) =="
dune exec bench/main.exe -- --quick

# Fleet smoke (DESIGN.md §6a, §7a): fan-out throughput over a small
# worker sweep through the decoded-block code cache, plus the per-wave
# rollout pause, written to BENCH_fleet.json. Two gates: the harness
# hard-fails if the cached run and the interpreter reference (a no-op
# on_insn hook) at w1 spend different virtual cycle counts (the cache
# must be invisible to the guest), and if the cache's host speedup at
# w1 (reference/cached serve time, min-of-k interleaved) drops below 2x.
echo "== bench --quick fleet =="
dune exec bench/main.exe -- --quick fleet
# served counts, req/Mcycle, hit rates and rollout pauses are all
# virtual; only the host_* timings may move
virtual_axis_unchanged BENCH_fleet.json '"host_'

# Overload smoke (DESIGN.md §6b): capacity probe + a two-point offered-
# load sweep with admission control on/off, written to
# BENCH_overload.json. The harness itself asserts the no-shed curve
# falls below the shed curve past saturation.
echo "== bench --quick overload =="
dune exec bench/main.exe -- --quick overload

# Determinism guard (DESIGN.md §6b): the same saturating open-loop soak
# twice from the same seed must produce byte-identical observability
# dumps (and must actually shed + retry).
echo "== overload soak determinism =="
dune exec examples/overload_soak.exe

# The static fault-site registry must match the Fault.site call sites
# actually present in lib/ — a site added in code but missing from
# Fault.known_sites would silently escape the crash matrix below. The
# registry side comes from the machine-readable dump
# (--list-fault-sites --json), not from scraping the human listing.
echo "== fault-site registry sync =="
# The call may carry optional labelled args (e.g. ~scope:pid) before the
# site literal, so match up to the first quoted string on the line.
sites_in_code=$(grep -rhoE 'Fault\.site [^"]*"[^"]+"' lib/ | sed 's/.*"\(.*\)"$/\1/' | sort -u)
sites_listed=$(dune exec bin/dynacut_cli.exe -- fleet --list-fault-sites --json \
  | grep -o '"site": *"[^"]*"' | sed 's/.*"\([^"]*\)"$/\1/' | sort -u)
if [ "$sites_in_code" != "$sites_listed" ]; then
  echo "FAIL: Fault.site calls in lib/ disagree with --list-fault-sites:"
  echo "--- in code"
  echo "$sites_in_code"
  echo "--- listed"
  echo "$sites_listed"
  exit 1
fi
echo "   $(echo "$sites_listed" | wc -l) sites in sync"

# Scrub smoke (DESIGN.md §6d): detection latency vs scrub rate (virtual
# cycles), the respawn/repair cost ratio (host time, min-of-k
# interleaved, must stay >= 5x), the scrub overhead on a served soak
# (host time, <= 5% at the default interval; the soak's virtual cycles
# must not move at all), and the two-seeded-runs determinism check,
# written to BENCH_scrub.json. Run twice: the virtual-axis detection
# latencies must be byte-identical across runs.
echo "== bench --quick scrub =="
dune exec bench/main.exe -- --quick scrub
detect_first=$(grep '"detect_cycles_interval_' BENCH_scrub.json)
dune exec bench/main.exe -- --quick scrub
detect_second=$(grep '"detect_cycles_interval_' BENCH_scrub.json)
if [ "$detect_first" != "$detect_second" ]; then
  echo "FAIL: bench scrub detection latencies differ across two runs:"
  echo "$detect_first"
  echo "--- vs"
  echo "$detect_second"
  exit 1
fi
echo "   detection latencies identical across two runs"

# Slicing smoke (DESIGN.md §7): profile ltpd and rkv under the dataflow
# slicing tracer, assert the sliced-away class cuts covered blocks the
# coverage diff cannot (disjoint by construction), converge the cut via
# verifier feedback with the wanted feature intact, replay a seeded
# counterexample bit-for-bit, and bound the tracing overhead
# (min-vs-min serve ratio), written to BENCH_slice.json.
echo "== bench --quick slice =="
dune exec bench/main.exe -- --quick slice
# Every count in BENCH_slice.json is on the virtual axis; only the three
# host-time fields may move.
virtual_axis_unchanged BENCH_slice.json \
  '"(serve_s_slicer_on|serve_s_slicer_off|tracing_overhead_x)":'

# Crash-recovery matrix (DESIGN.md §5d): the Kill column of the chaos
# coverage matrix below (Chaos.probe site Fault.Kill). Kill the
# controller at every registered fault site, recover, and assert each
# pid is fully cut XOR fully original and on its expected side, and that
# a fresh controller can re-cut a single tree. It fails on any site
# without a probe, any site the probe never reaches, and any exception
# a probe lets escape, naming the site.
echo "== crash-recovery matrix =="
dune exec examples/crash_matrix.exe

# Chaos smoke (DESIGN.md §6c): the directed site x mode coverage matrix
# (every registered site in every applicable mode — the bench hard-fails
# on any unexercised applicable mode, i.e. a coverage hole) plus a small
# batch of seeded multi-fault schedules checked against the invariant
# oracles, written to BENCH_chaos.json. CHAOS_FULL=1 runs the full
# 50-schedule sweep instead.
if [ "${CHAOS_FULL:-0}" = "1" ]; then
  echo "== bench chaos (full sweep) =="
  dune exec bench/main.exe -- chaos
else
  echo "== bench --quick chaos =="
  dune exec bench/main.exe -- --quick chaos
  # BENCH_chaos.json has no host fields: every probe verdict, including
  # the corrupt-mode probes at criu.save, journal.* and fleet.manifest,
  # must match the committed file byte for byte (the regex matches no
  # line)
  virtual_axis_unchanged BENCH_chaos.json '^NO HOST FIELDS$'
fi

# Perfbench smoke (perfbench/README.md): one second of each host-time
# workload from seed 1. Each workload checks its own replies (for
# profile_kv, discovery's 27 coverage-diff and 204 sliced-away blocks),
# so a lib change that breaks them fails here, not only in the
# benchmark pipeline.
echo "== perfbench smoke =="
for w in serve_web recut_ngx profile_kv; do
  out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  case "$out" in
    *'"correct": true'*'"failed": 0'*) echo "   $w ok" ;;
    *)
      echo "FAIL: perfbench $w: $out"
      exit 1
      ;;
  esac
done
# One traced second of recut_ngx: its traced pass must leave every guest
# count (machine.insns, vcycles, syscalls, traps) equal to the untraced
# pass, or the run is not correct. A host-side change must not move the
# guest on the cut path either.
out=$(python3 perfbench/run.py --workload recut_ngx --seed 1 --seconds 1 --trace 1 | tail -n 1)
case "$out" in
  *'"correct": true'*'"failed": 0'*) echo "   recut_ngx traced ok" ;;
  *)
    echo "FAIL: perfbench recut_ngx --trace 1: $out"
    exit 1
    ;;
esac

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed) =="
fi

echo "ci: all green"

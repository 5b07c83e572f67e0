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
# hard-fails if the cached run and the interpreter reference (a degraded
# dispatcher) at w1 spend different virtual cycle counts (the cache
# must be invisible to the guest), and if the cache's host speedup at
# w1 (reference/cached serve time, min-of-k interleaved) drops below 2x.
echo "== bench --quick fleet =="
dune exec bench/main.exe -- --quick fleet
# served counts, req/Mcycle, hit rates and rollout pauses are all
# virtual; only the host_* timings may move
virtual_axis_unchanged BENCH_fleet.json '"host_'

# Fault sites are constructors of Fault.Site.t, whose exhaustive matches
# make the compiler check each site's name, mode set and chaos probe; a
# string literal in a Fault call or a ~site: label would bypass that.
echo "== fault sites are constructors =="
site_literals=$(grep -rnE 'Fault\.[a-z_]+( +[~?][a-z_]+(:[^ ]+)?)* +"|~site: *"' lib/ bin/ || true)
if [ -n "$site_literals" ]; then
  echo "FAIL: a string literal names a fault site:"
  echo "$site_literals"
  exit 1
fi
echo "   no string-literal fault sites in lib/ or bin/"

# Site.all is written out by hand beside the type: a constructor left
# out of it still compiles, and then overruns or shares the per-site
# arrays. The constructors of Site.t and the entries of Site.all must
# be the same set.
echo "== Site.all lists every Site.t constructor =="
declared=$(sed -n '/^module Site = struct/,/^$/p' lib/util/fault.ml |
  grep -oE '\| *[A-Z][A-Za-z0-9_]*' | tr -d '| ' | sort)
listed=$(sed -n '/^  let all =/,/^    \]/p' lib/util/fault.ml | grep -oE '\b[A-Z][A-Za-z0-9_]*' | sort)
if [ -z "$declared" ] || [ "$declared" != "$listed" ]; then
  echo "FAIL: Site.t constructors and Site.all entries differ"
  for n in $declared; do
    echo "$listed" | grep -qx "$n" || echo "   missing from Site.all: $n"
  done
  for n in $listed; do
    echo "$declared" | grep -qx "$n" || echo "   not a Site.t constructor: $n"
  done
  exit 1
fi
echo "   $(echo "$declared" | wc -l) constructors, each in Site.all"

# Guard smoke (DESIGN.md §5c): the canary gate's exit codes. A good cut
# is promoted (exit 0); a --storm cut kills the canary on the first
# wanted request, so the canary is rejected and reverted (exit 4).
echo "== guard smoke =="
cli_exit() {
  want=$1
  shift
  status=0
  dune exec bin/dynacut_cli.exe -- "$@" >/dev/null || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "FAIL: dynacut $* exited $status, expected $want"
    exit 1
  fi
  echo "   $* -> $status"
}
cli_exit 0 guard ngx
cli_exit 4 guard ngx --storm
# A fault spec naming a site outside the registry is a usage error
# (exit 2), not a fault armed at a site that never fires.
cli_exit 2 fleet ltpd --inject-fault balancer.health:once
cli_exit 2 recover ngx --crash-at criu.sav
# So is a deleted spelling: the delay mode, the per-pid scope and the
# crit sites are gone, and a spec naming one is refused, not ignored.
cli_exit 2 fleet ltpd --inject-fault net.serve:delay=40000
cli_exit 2 fleet ltpd --inject-fault net.serve:once:pid=100
cli_exit 2 recover ngx --crash-at crit.decode
# A mode the site cannot fire in (a storage mode at a site with no
# storage write) is a usage error too, not an armed fault that never
# fires.
cli_exit 2 cut ngx put-delete --inject-fault rewrite.patch:corrupt
# An injected fault on the serving path refuses requests; the rollout
# carries on and completes (exit 0), it does not die of the fault.
cli_exit 0 fleet ltpd --inject-fault net.serve:p=0.5 --fault-seed 3
# A controller killed mid-rollout (here at wave 2's canary checkpoint)
# leaves each worker to recover through its own journal: exit 6.
cli_exit 6 fleet ltpd --inject-fault criu.checkpoint:on=3:kill
# The same kill on wave 1's second member (pid 101), a plain member
# cut rather than a canary: that worker too recovers alone and serves.
cli_exit 6 fleet ltpd --inject-fault criu.checkpoint:on=2:kill
# A torn intent record does not read back, so the cut rolls back
# before the stage the record announces acts, with its controller
# alive: exit 3, never an applied cut over a journal with no intent.
cli_exit 3 cut ngx put-delete --inject-fault journal.append:on=1:corrupt
# So does a torn lock stamp: it puts the previous lock back and the cut
# rolls back at its journal stage, never an uncaught Fenced.
cli_exit 3 cut ngx put-delete --inject-fault journal.lock:once:corrupt
# A rollout halt reverts through the one wave revert: wave 1's member
# cut rolls back at restore, the canary is re-enabled, exit 4.
cli_exit 4 fleet ltpd --inject-fault restore.process:nth=2

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

# Pinned examples: these are deterministic end to end (seeded PRNG,
# virtual clock), so their stdout must equal the committed
# examples/expected/<name>.txt. The only host-time figures they print
# are a cut's stage timings ("checkpoint 0.0009s + ..."); those numbers
# are masked on both sides, and every other byte must match. An example
# that exits non-zero fails the step even when its output matches: the
# examples assert as they go (autopilot, DESIGN.md §5b, asserts that its
# seccomp filter survives a redeploy from the customized image).
echo "== pinned example output =="
host_seconds='s/[0-9]+\.[0-9]{4}s/#.####s/g'
pinned=$(mktemp)
out=$(mktemp)
for e in fault_drill guarded_rollout fleet_rollout init_removal cve_mitigation \
  verifier_validation quickstart webserver_customization autopilot; do
  sed -E "$host_seconds" "examples/expected/$e.txt" >"$pinned"
  status=0
  dune exec "examples/$e.exe" >"$out" || status=$?
  if [ "$status" -ne 0 ]; then
    cat "$out"
    echo "FAIL: examples/$e.exe exited with status $status"
    rm -f "$pinned" "$out"
    exit 1
  fi
  if ! sed -E "$host_seconds" "$out" | diff "$pinned" -; then
    echo "FAIL: examples/$e.exe output differs from examples/expected/$e.txt"
    rm -f "$pinned" "$out"
    exit 1
  fi
  echo "   $e identical"
done
rm -f "$pinned" "$out"

# Chaos coverage (DESIGN.md §6c): the directed site x mode matrix, every
# registered site in every applicable mode, written to BENCH_chaos.json.
# The bench hard-fails on any failing probe and on any unexercised
# applicable mode (a coverage hole).
echo "== bench chaos =="
dune exec bench/main.exe -- chaos
# BENCH_chaos.json has no host fields: every probe verdict, including
# the corrupt-mode probes at criu.save and journal.*, must match the committed file byte for byte (the regex matches no
# line)
virtual_axis_unchanged BENCH_chaos.json '^NO HOST FIELDS$'

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
# One traced second each of recut_ngx and profile_kv: the traced pass
# must leave every guest count (machine.insns, vcycles, syscalls, traps)
# equal to the untraced pass, or the run is not correct. A host-side
# change must not move the guest on the cut path, and the slicer's
# step running in the code cache's traced slot loop must not move it in
# discovery.
# On recut_ngx the traced pass also bounds criu.image_kb, the KiB a
# transaction's working images hold. Anonymous memory is demand-zero,
# and neither the dump nor the inject stores an all-zero anonymous page,
# so an image holds the touched pages that are file-backed or hold data:
# 158.92 KiB per transaction. The figure is exact (it counts pages, not
# time), so the bound cannot flake. Storing zero pages again fails it:
# the handler library's zero pages read 163.09 KiB, every zero page the
# tree touched 483.08, and populating every mapped page 1115.
image_kb_bound=160
for w in recut_ngx profile_kv; do
  out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1)
  case "$out" in
    *'"correct": true'*'"failed": 0'*) echo "   $w traced ok" ;;
    *)
      echo "FAIL: perfbench $w --trace 1: $out"
      exit 1
      ;;
  esac
  if [ "$w" = recut_ngx ]; then
    echo "$out" | python3 -c '
import json, sys
kb = json.load(sys.stdin)["metrics"]["criu.image_kb"]["value"]
bound = float(sys.argv[1])
print("   criu.image_kb %.2f (bound %.0f)" % (kb, bound))
sys.exit(0 if kb <= bound else 1)' "$image_kb_bound" || {
      echo "FAIL: recut_ngx criu.image_kb exceeds $image_kb_bound KiB: the images store all-zero anonymous pages or pages no access made"
      exit 1
    }
  fi
done

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== fmt skipped (ocamlformat not installed) =="
fi

echo "ci: all green"

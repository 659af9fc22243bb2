#!/bin/sh
# Repo check: full build, the test suite (every Alcotest suite, including
# the 1/2/4-shard log-identity tests of test/test_shard.ml), end-to-end runs
# of mini-bro and hiltic, and the gated bench experiments.  Each
# `bench/main.exe <exp> --quick` writes BENCH_<exp>.json and checks that
# experiment's own gates (declared next to the code that measures them in
# bench/bench_<exp>.ml); it prints a "GATE FAILED" line per violated or
# missing metric and exits non-zero.
# Each "== " step runs in its own subshell under `set -e`: its first
# failing command ends that step, the failure is recorded and the next
# step still runs.  At the end every failed step is listed and the
# script exits non-zero if there was one.
cd "$(dirname "$0")"

failed=""

# step NAME FUNCTION: run one check step and record its failure.
step() {
  echo "== $1"
  ( set -e; "$2" )
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "check.sh: FAILED (exit $status): $1"
    failed="$failed
  $1"
  fi
}

check_build() {
  dune build @all
}
step "dune build @all" check_build

check_runtest() {
  dune runtest
}
step "dune runtest" check_runtest



check_tcp_std_vs_pac() {
  tcp_std=$(mktemp -d)
  tcp_pac=$(mktemp -d)
  for p in http mqtt ftp; do
    dune exec bin/mini_bro_cli.exe -- -g "$p:40" -parsers std -timeout 5 -w "$tcp_std"
    dune exec bin/mini_bro_cli.exe -- -g "$p:40" -parsers pac -timeout 5 -w "$tcp_pac"
  done
  diff -r "$tcp_std" "$tcp_pac"
  rm -rf "$tcp_std" "$tcp_pac"
}
step "TCP stream runner via mini-bro: HTTP/MQTT/FTP std == pac logs under idle eviction" check_tcp_std_vs_pac

check_interp_vs_compiled() {
  for p in dns:300 http:40 mqtt:40 ftp:40; do
    for parsers in std pac; do
      int=$(mktemp -d)
      comp=$(mktemp -d)
      dune exec bin/mini_bro_cli.exe -- -g "$p" -parsers $parsers -w "$int" > /dev/null
      dune exec bin/mini_bro_cli.exe -- -g "$p" -parsers $parsers -compile-scripts -w "$comp" > /dev/null
      diff -r "$int" "$comp"
      rm -rf "$int" "$comp"
    done
  done
}
step "interpreted == compiled scripts via mini-bro: DNS/HTTP/MQTT/FTP logs, std and pac parsers" check_interp_vs_compiled

check_par_vs_serial() {
  for mode in "-parsers std" "-parsers pac -compile-scripts"; do
    ser=$(mktemp -d)
    par=$(mktemp -d)
    dune exec bin/mini_bro_cli.exe -- -g dns:2000 $mode -w "$ser" > /dev/null
    dune exec bin/mini_bro_cli.exe -- -g dns:2000 $mode -j 2 -w "$par" > "$par/out"
    cmp "$ser/dns.log" "$par/dns.log"
    # time: total T ms (parse P, script S, glue G) -- P and S must be non-zero.
    awk '/^time:/ { found = 1; if ($6 + 0 <= 0 || $8 + 0 <= 0) exit 1 }
         END { if (!found) exit 1 }' "$par/out"
    rm -rf "$ser" "$par"
  done
}
step "-j 2 vs serial via mini-bro: identical dns.log, parse/script breakdown kept" check_par_vs_serial

check_evt_analyzers() {
  evt=$(mktemp -d)
  dune exec bin/mini_bro_cli.exe -- -g ssh:20 examples/data/ssh.evt examples/data/ssh.bro \
    > "$evt/out" 2> "$evt/err"
  # Two banners per session, one "software, version" line each.
  [ "$(grep -c '^[^ ]*, [0-9.]*$' "$evt/out")" -eq 40 ]
  [ "$(wc -l < "$evt/out")" -eq 40 ]
  grep -q ' 20 connections,' "$evt/err"
  rm -rf "$evt"
}
step ".evt analyzers on the TCP stream runner (Fig. 7(d) via mini-bro)" check_evt_analyzers


check_profiler_smoke() {
  prof=$(mktemp -d)
  dune exec bin/mini_bro_cli.exe -- -g dns:2000 -parsers pac -compile-scripts -timeout 50 \
    -quiet -profile "$prof/F" -metrics "$prof/P"
  grep -q '^#profiler' "$prof/F"
  grep -q '^analyzer/parse ' "$prof/F"
  grep -q '^analyzer/script ' "$prof/F"
  grep -q '^bro/glue ' "$prof/F"
  # The VM credits its cycle clock, so the parse block has cycles.
  grep '^analyzer/parse ' "$prof/F" | grep -qv 'cycles=0$'
  grep -qF 'profiler_cycles{name="analyzer/parse"}' "$prof/P.prom"
  rm -rf "$prof"
}
step "profiler smoke via mini-bro: -profile report + profiler samples in the scrape" check_profiler_smoke

check_bench_threads() {
  dune exec bench/main.exe -- threads --quick
}
step "bench threads (writes BENCH_threads.json)" check_bench_threads

check_bench_stream() {
  dune exec bench/main.exe -- stream --quick
}
step "bench stream (writes BENCH_stream.json)" check_bench_stream


check_bench_obs() {
  dune exec bench/main.exe -- obs --quick
}
step "bench obs (writes BENCH_obs.json)" check_bench_obs




check_bench_micro() {
  dune exec bench/main.exe -- micro --quick
}
step "bench micro (writes BENCH_micro.json: frames + allocation per packet)" check_bench_micro

check_bench_vmopt() {
  dune exec bench/main.exe -- vmopt --quick
}
step "bench vmopt (writes BENCH_vmopt.json)" check_bench_vmopt


check_fuzz_smoke() {
  # DNS pair + both new grammars under std-vs-pac and generic-vs-specialized
  # bytecode; any divergence, crash or hang fails the check (exit 1).  The
  # budget keeps this under ~15s even on slow machines.
  dune exec bin/mini_bro_cli.exe -- -fuzz all -seed 1 -budget 150 -quiet
}
step "fuzz smoke (all six differential pairs, fixed seed, bounded time)" check_fuzz_smoke

check_bench_fuzz() {
  dune exec bench/main.exe -- fuzz --quick
}
step "bench fuzz (writes BENCH_fuzz.json)" check_bench_fuzz

check_analyze_examples() {
  : > LINT_report.tsv
  for f in examples/data/*.hlt; do
    entry=""
    case "$f" in
      # Deliberately shard-unsafe fixture: checked separately below, must
      # NOT be in the clean report.
      */racy.hlt) continue ;;
      # The firewall's per-packet function runs under the sharded data
      # plane, so the race rules apply to it.
      */firewall.hlt) entry="-shard-entry Firewall::match_packet" ;;
    esac
    dune exec bin/hiltic.exe -- -analyze $entry "$f" >> LINT_report.tsv
  done
}
step "hiltic -analyze over examples (exits non-zero on error findings)" check_analyze_examples

check_analyze_bundled() {
  dune exec bin/hiltic.exe -- -analyze-bundled >> LINT_report.tsv
  cat LINT_report.tsv
}
step "hiltic -analyze-bundled (grammars + Bro scripts; race rules over parse_* entries)" check_analyze_bundled

check_lint_report_current() {
  git diff --exit-code -- LINT_report.tsv
}
step "LINT_report.tsv is current (regenerate and commit it if this fails)" check_lint_report_current

check_racy_fixture() {
  set +e
  racy_out=$(dune exec bin/hiltic.exe -- -analyze -shard-entry Racy::check_packet examples/data/racy.hlt 2>&1)
  racy_status=$?
  set -e
  [ "$racy_status" -ne 0 ]
  # The exact findings, one per race rule, pinned byte for byte.
  printf '%s\n' "$racy_out" | diff - examples/data/racy.expected
}
step "race detector flags the deliberately racy fixture" check_racy_fixture

check_analyze_json() {
  dune exec bin/hiltic.exe -- -analyze -format json examples/data/hello.hlt | grep -qF '"report":{"findings":['
}
step "-analyze -format json smoke (stable key order)" check_analyze_json

if [ -n "$failed" ]; then
  echo "check.sh: failed steps:$failed"
  exit 1
fi
echo "check.sh: all green"

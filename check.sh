#!/bin/sh
# Repo check: full build, the test suite (which includes the 1/2/4-shard
# log-identity tests of test/test_shard.ml), and the §6.6 threads benchmark,
# which writes BENCH_threads.json with per-shard-count throughput.
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

check_shard_suite() {
  dune exec test/test_main.exe -- test shard
}
step "parallel determinism (test_shard: ring, shard hash, byte-identical logs at 1/2/4 shards)" check_shard_suite

check_stream_suite() {
  dune exec test/test_main.exe -- test stream
}
step "streaming pipeline suite (test_stream)" check_stream_suite

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
  dune exec test/test_main.exe -- test evt
  evt=$(mktemp -d)
  dune exec bin/mini_bro_cli.exe -- -g ssh:20 examples/data/ssh.evt examples/data/ssh.bro \
    > "$evt/out" 2> "$evt/err"
  # Two banners per session, one "software, version" line each.
  [ "$(grep -c '^[^ ]*, [0-9.]*$' "$evt/out")" -eq 40 ]
  [ "$(wc -l < "$evt/out")" -eq 40 ]
  grep -q ' 20 connections,' "$evt/err"
  rm -rf "$evt"
}
step ".evt analyzers on the TCP stream runner (test evt + Fig. 7(d) via mini-bro)" check_evt_analyzers

check_sha1_and_http_bodies() {
  dune exec test/test_main.exe -- test bro
  dune exec test/test_main.exe -- test analyzers
}
step "SHA-1 kernel (test bro) and streamed HTTP body hashing (test analyzers)" check_sha1_and_http_bodies

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
  # Serial and sharded runs must produce byte-identical event streams.
  grep -q '"identical_output": true' BENCH_threads.json
  grep -q '"cores_available"' BENCH_threads.json
  # On multi-core hardware, 2 shards must hold >= 0.9x the cooperative
  # throughput (the old engine regressed to ~0.45x); a 1-core box can only
  # measure overhead, so the gate is skipped there (the JSON carries a
  # warning instead).
  cores=$(sed -n 's/.*"cores_available": \([0-9]*\).*/\1/p' BENCH_threads.json)
  if [ "${cores:-1}" -ge 2 ]; then
    coop=$(sed -n 's/.*"mode": "cooperative".*"datagrams_per_sec": \([0-9]*\).*/\1/p' BENCH_threads.json)
    s2=$(sed -n 's/.*"mode": "sharded", "shards": 2.*"datagrams_per_sec": \([0-9]*\).*/\1/p' BENCH_threads.json)
    awk -v c="$coop" -v s="$s2" 'BEGIN { if (s + 0 < 0.9 * c) exit 1 }'
  else
    grep -q '"warning"' BENCH_threads.json
  fi
}
step "bench threads (writes BENCH_threads.json)" check_bench_threads

check_bench_stream() {
  dune exec bench/main.exe -- stream --quick
  grep -q '"dns_pps_unbatched"' BENCH_stream.json
  grep -q '"dns_pps_zero_copy"' BENCH_stream.json
  # The zero-copy batched DNS loop must hold >= 1.5x over the pre-PR
  # per-packet string loop (both measured in the same interleaved run and
  # recorded above), and batching must not cost the firewall path anything
  # (0.95 allows measurement noise).
  awk -F': ' '/"dns_speedup_zero_copy"/ { if ($2+0 < 1.5) exit 1 }' BENCH_stream.json
  awk -F': ' '/"firewall_batch_speedup"/ { if ($2+0 < 0.95) exit 1 }' BENCH_stream.json
}
step "bench stream (writes BENCH_stream.json)" check_bench_stream

check_obs_suite() {
  dune exec test/test_main.exe -- test obs
}
step "observability suite (test_obs: sharding exactness, export formats)" check_obs_suite

check_bench_obs() {
  dune exec bench/main.exe -- obs --quick
  grep -q '"overhead_pct_1"' BENCH_obs.json
  grep -q '"overhead_pct_4"' BENCH_obs.json
  grep -q '"disabled_alloc_words_per_100k"' BENCH_obs.json
}
step "bench obs (writes BENCH_obs.json)" check_bench_obs

check_analysis_suite() {
  dune exec test/test_main.exe -- test analysis
}
step "analysis suite (dataflow, lint, verifier, verification as the VM's precondition)" check_analysis_suite

check_escape_suite() {
  dune exec test/test_main.exe -- test escape
}
step "escape suite (summaries, race detector, recycled frames)" check_escape_suite

check_vmopt_suite() {
  dune exec test/test_main.exe -- test vmopt
}
step "vmopt suite (typing export, specialized-opcode verification, generic-vs-specialized differential)" check_vmopt_suite

check_bench_micro() {
  dune exec bench/main.exe -- micro --quick
  grep -q '"frame_bytes_per_activation"' BENCH_micro.json
  grep -q '"fib_words_per_activation"' BENCH_micro.json
  # Every activation runs in a recycled frame: allocated bytes per leaf
  # activation on the call-heavy micro path, and minor words per
  # activation of the recursive compiled fib(21) (deterministic counts;
  # 126 B and ~30 words when only analysis-licensed, non-recursive
  # functions recycled frames and the rest copied theirs).
  awk -F': ' '/"frame_bytes_per_activation"/ { if ($2+0 > 96) exit 1 }' BENCH_micro.json
  awk -F': ' '/"fib_words_per_activation"/ { if ($2+0 > 10) exit 1 }' BENCH_micro.json
  grep -q '"exp_map_refresh_words"' BENCH_micro.json
  grep -q '"fw_pending_timers_per_entry"' BENCH_micro.json
  # Expiring state keeps one timer per live entry: an access refresh only
  # moves the entry's deadline (0 minor words; 20 when every refresh armed
  # a new timer), and after a 61k-packet DNS + HTTP mix the firewall holds
  # one pending timer per dynamic-rule entry (20.4 when stale timers stayed
  # queued until their deadline).
  awk -F': ' '/"exp_map_refresh_words"/ { if ($2+0 > 0) exit 1 }' BENCH_micro.json
  awk -F': ' '/"fw_pending_timers_per_entry"/ { if ($2+0 > 1.1) exit 1 }' BENCH_micro.json
  grep -q '"dns_alloc_bytes_per_packet_before"' BENCH_micro.json
  grep -q '"dns_alloc_bytes_per_packet_after"' BENCH_micro.json
  grep -q '"http_alloc_reduction"' BENCH_micro.json
  # Zero-copy view decode must cut the DNS per-packet allocation by >= 50%
  # versus the string-materializing path (measured runs land ~90%).
  awk -F': ' '/"dns_alloc_reduction"/ { if ($2+0 < 0.5) exit 1 }' BENCH_micro.json
  grep -q '"dns_pac_alloc_bytes_per_packet"' BENCH_micro.json
  grep -q '"dns_pac_instrs_per_packet"' BENCH_micro.json
  # BinPAC++ DNS on the VM, with names resolved at link time: allocated
  # bytes per packet (a count, not a time, so the gate is deterministic;
  # ~5,700 measured, 38,561 before struct slots, hook indices and the
  # two-destination unpack).
  awk -F': ' '/"dns_pac_alloc_bytes_per_packet"/ { if ($2+0 > 8000) exit 1 }' BENCH_micro.json
  grep -q '"dns_script_alloc_bytes_per_txn"' BENCH_micro.json
  # The bundled DNS handlers under the interpreter, resolved at load:
  # allocated bytes per transaction (a deterministic count; ~1,570
  # measured, 11,240 before frame slots and column-ordered log rows).
  awk -F': ' '/"dns_script_alloc_bytes_per_txn"/ { if ($2+0 > 5000) exit 1 }' BENCH_micro.json
  grep -q '"key_tuple_addr_bytes"' BENCH_micro.json
  grep -q '"fw_line_bytes"' BENCH_micro.json
  # The firewall's per-packet formatting: a binary tuple<addr,addr> set key
  # and one decision line, in allocated bytes per call (deterministic
  # counts; 48 and 200 measured, 1,240 and ~920 with text keys and Printf).
  awk -F': ' '/"key_tuple_addr_bytes"/ { if ($2+0 > 64) exit 1 }' BENCH_micro.json
  awk -F': ' '/"fw_line_bytes"/ { if ($2+0 > 256) exit 1 }' BENCH_micro.json
  grep -q '"glue_connection_bytes"' BENCH_micro.json
  grep -q '"dns_compiled_script_alloc_bytes_per_txn"' BENCH_micro.json
  # Compiled-script glue resolved at load: one typed `connection` argument
  # conversion and the compiled DNS handlers per transaction, in allocated
  # bytes (deterministic counts; 328 and ~5,770 measured, 2,152 and ~12,680
  # when each record was rebuilt by name in its own profiler window).
  awk -F': ' '/"glue_connection_bytes"/ { if ($2+0 > 512) exit 1 }' BENCH_micro.json
  awk -F': ' '/"dns_compiled_script_alloc_bytes_per_txn"/ { if ($2+0 > 8000) exit 1 }' BENCH_micro.json
  grep -q '"connection_val_bytes"' BENCH_micro.json
  grep -q '"dns_all_scripts_alloc_bytes_per_txn"' BENCH_micro.json
  # Interpreter state without strings or cells: one `connection` record
  # (shared field-name arrays, no per-field ref cells) and every bundled
  # script over the DNS event stream with `connection_established`, in
  # allocated bytes (deterministic counts; 264 and ~1,560 measured, 1,112
  # and ~2,920 with string-built keys and (name, ref) record fields).
  awk -F': ' '/"connection_val_bytes"/ { if ($2+0 > 384) exit 1 }' BENCH_micro.json
  awk -F': ' '/"dns_all_scripts_alloc_bytes_per_txn"/ { if ($2+0 > 2400) exit 1 }' BENCH_micro.json
  grep -q '"sha1_mb_per_s"' BENCH_micro.json
  grep -q '"sha1_minor_words_per_mib"' BENCH_micro.json
  # SHA-1 over an 8 MiB message fed in 1,460-byte segments: minor words
  # per MiB (a deterministic count; 0.88 measured, the 40-character digest
  # being the only allocation; one word per 64-byte block would read
  # 16,384).  The kernel's MB/s depends on the host and is recorded only.
  awk -F': ' '/"sha1_minor_words_per_mib"/ { if ($2+0 > 1) exit 1 }' BENCH_micro.json
}
step "bench micro (writes BENCH_micro.json: frames + allocation per packet)" check_bench_micro

check_bench_vmopt() {
  dune exec bench/main.exe -- vmopt --quick
  grep -q '"speedup_spec_over_generic"' BENCH_vmopt.json
  grep -q '"firewall_speedup"' BENCH_vmopt.json
  grep -q '"dns_speedup"' BENCH_vmopt.json
  # Specialized opcodes must beat the generic ones on the hot loop and must
  # not regress the end-to-end workloads (0.9 allows measurement noise).
  awk -F': ' '/"speedup_spec_over_generic"/ { if ($2+0 < 1.5) exit 1 }' BENCH_vmopt.json
  awk -F': ' '/"firewall_speedup"/ { if ($2+0 < 0.9) exit 1 }' BENCH_vmopt.json
  awk -F': ' '/"dns_speedup"/ { if ($2+0 < 0.9) exit 1 }' BENCH_vmopt.json
}
step "bench vmopt (writes BENCH_vmopt.json)" check_bench_vmopt

check_fuzz_suite() {
  dune exec test/test_main.exe -- test fuzz
}
step "fuzz suite (test_fuzz: shape scanners, replayable findings, clean pairs)" check_fuzz_suite

check_fuzz_smoke() {
  # DNS pair + both new grammars under std-vs-pac and generic-vs-specialized
  # bytecode; any divergence, crash or hang fails the check (exit 1).  The
  # budget keeps this under ~15s even on slow machines.
  dune exec bin/mini_bro_cli.exe -- -fuzz all -seed 1 -budget 150 -quiet
}
step "fuzz smoke (all six differential pairs, fixed seed, bounded time)" check_fuzz_smoke

check_bench_fuzz() {
  dune exec bench/main.exe -- fuzz --quick
  grep -q '"execs_per_sec"' BENCH_fuzz.json
  grep -q '"corpus_cases"' BENCH_fuzz.json
  # The shipped parsers must stay divergence-free under the seeded run.
  grep -q '"findings": 0,' BENCH_fuzz.json
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
  echo "$racy_out" | grep -q 'race/global-write'
  echo "$racy_out" | grep -q 'race/timer-cross-shard'
  echo "$racy_out" | grep -q 'race/hostapi-shared'
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

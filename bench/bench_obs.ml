(** Observability overhead: the cost of leaving instrumentation enabled on
    the hot path (§3.3's premise that measurement belongs inside the
    execution environment only holds if it is cheap).

    The DNS stream workload runs end-to-end (generator iosrc -> driver ->
    script engine) with metrics recording off and on, serially and with
    the parse stage on 4 domains; the overhead percentages land in
    BENCH_obs.json.  A separate check asserts the disabled fast path does
    not allocate at all. *)

let scripts = lazy (Mini_bro.Bro_scripts.parse_all ())

let eval ~transactions ~jobs () =
  let src =
    Hilti_traces.Dns_gen.iosrc { Hilti_traces.Dns_gen.default with transactions }
  in
  Hilti_analyzers.Driver.evaluate_src
    ~proto:(`Dns Hilti_analyzers.Driver.Dns_std)
    ~engine_mode:Mini_bro.Bro_engine.Interpreted ~scripts:(Lazy.force scripts)
    ~logging:false ?jobs src

let gates =
  Bench_util.Report.
    [ ("overhead_pct_1", Recorded);
      ("overhead_pct_4", Recorded);
      ("disabled_alloc_words_per_100k", Recorded) ]

let run ?(dns_transactions = 2500) () =
  Bench_util.header "observability: instrumentation overhead (off vs on)";
  let r = Bench_util.Report.create "obs" ~gates in
  (* Warm up shared lazies (scripts, generator tables) outside the clock. *)
  ignore (eval ~transactions:50 ~jobs:None ());
  (* The real overhead is percent-level, far below run-to-run noise on a
     shared machine, so single off and on timings cannot be compared
     directly.  Instead each iteration times both states back to back
     (alternating the order, heap compacted before every sample) and
     yields one paired on/off ratio; the reported overhead is the median
     of those ratios, which cancels drift that hits both states of an
     iteration equally.  Best times per state are kept for the table. *)
  let time_config ~jobs =
    let best = [| Int64.max_int; Int64.max_int |] in
    let ratios = ref [] in
    for iter = 1 to 15 do
      let sample enabled =
        Bench_util.gc_normalize ();
        Hilti_obs.Metrics.reset ();
        let _, ns =
          Bench_util.time_ns (fun () ->
              Hilti_obs.Metrics.with_enabled enabled
                (eval ~transactions:dns_transactions ~jobs))
        in
        let i = if enabled then 1 else 0 in
        if ns < best.(i) then best.(i) <- ns;
        ns
      in
      let off, on =
        if iter mod 2 = 0 then
          let off = sample false in
          (off, sample true)
        else
          let on = sample true in
          (sample false, on)
      in
      ratios := Bench_util.ratio on off :: !ratios
    done;
    let sorted = List.sort compare !ratios in
    let median = List.nth sorted (List.length sorted / 2) in
    (best.(0), best.(1), median)
  in
  let module R = Bench_util.Report in
  R.int r ~unit_:"txns" "dns_transactions" dns_transactions;
  List.iter
    (fun (label, jobs) ->
      let off, on, median = time_config ~jobs in
      let pct = 100.0 *. (median -. 1.0) in
      Printf.printf "%-10s off %8.1f ms   on %8.1f ms   overhead %+.2f%%\n" label
        (Bench_util.ms off) (Bench_util.ms on) pct;
      let domains = Option.value ~default:1 jobs in
      R.num r ~unit_:"%" (Printf.sprintf "overhead_pct_%d" domains) pct;
      let labels = [ ("config", R.Text label); ("domains", R.Num (float_of_int domains)) ] in
      R.num r ~labels ~unit_:"ms" "off_ms" (Bench_util.ms off);
      R.num r ~labels ~unit_:"ms" "on_ms" (Bench_util.ms on);
      R.num r ~labels ~unit_:"%" "overhead_pct" pct)
    [ ("serial", None); ("domains=4", Some 4) ];
  (* The disabled fast path must not allocate: a counter hit is one load
     and a branch.  Minor words are sampled around 100k increments. *)
  let c = Hilti_obs.Metrics.counter "bench_obs_probe" in
  Hilti_obs.Metrics.set_enabled false;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Hilti_obs.Metrics.incr c
  done;
  let disabled_alloc = Gc.minor_words () -. w0 in
  Printf.printf "disabled fast path: %.0f minor words per 100k increments\n"
    disabled_alloc;
  R.num r ~unit_:"words" "disabled_alloc_words_per_100k" disabled_alloc;
  r

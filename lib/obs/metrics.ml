(** Domain-safe metrics: counters, gauges, and log-scale histograms (§3.3).

    The paper's runtime treats measurement as part of the abstract machine;
    this module is its one instrumentation registry.  It holds the ambient
    counters and distributions that instrument the whole pipeline — packet
    I/O, flow state, VM dispatch, the domain pool — and the §3.3 profilers,
    which {!Hilti_rt.Profiler} keeps as [profiler_*] counters here.  All
    values are exact (never sampled).

    {2 Sharding}

    Counters and histograms are sharded per OCaml domain: each domain owns
    a private shard reached through domain-local storage, so a hot-path
    increment is a deref + store with no synchronisation, and the global
    value is the sum over all registered shards, taken at scrape time.
    Shards of terminated domains stay registered, so nothing is lost.
    Gauges are a single [Atomic] cell (they track levels, not flows, and
    are updated at coarse points such as queue submit/take).

    {2 Enablement}

    All recording operations are gated on a global flag, off by default:
    with observability disabled the fast path is one load + branch and
    never allocates.  Scraping works regardless (it just sees zeros).
    Always-on measurement — the profilers and the VM cycle clock — writes
    through {!shard} instead, which bypasses the flag. *)

(* The global enable flag.  A plain ref read is race-benign: the flag is
   flipped before a run starts, and OCaml guarantees no tearing.  Exposed
   directly so per-instruction gating in the VM is a single load. *)
let on = ref false

let set_enabled b = on := b
let enabled () = !on

(** Run [f] with recording forced to [b], restoring the previous state
    afterwards (tests and the overhead benchmark). *)
let with_enabled b f =
  let saved = !on in
  on := b;
  Fun.protect ~finally:(fun () -> on := saved) f

(* ---- Counters --------------------------------------------------------------------- *)

type counter = {
  c_name : string;
  c_help : string;
  c_label : (string * string) option;
  c_lock : Mutex.t;
  c_shards : int ref list ref;  (* one per domain that ever touched it *)
  c_key : int ref Domain.DLS.key;
}

let make_counter name help label =
  let lock = Mutex.create () in
  let shards = ref [] in
  {
    c_name = name;
    c_help = help;
    c_label = label;
    c_lock = lock;
    c_shards = shards;
    c_key =
      (* First access from a domain creates and registers its shard. *)
      Domain.DLS.new_key (fun () ->
          let r = ref 0 in
          Mutex.protect lock (fun () -> shards := r :: !shards);
          r);
  }

(** Add [n] to the counter.  When metrics are disabled this is a load and
    a branch; when enabled, a domain-local deref + store. *)
let add c n =
  if !on then begin
    let r = Domain.DLS.get c.c_key in
    r := !r + n
  end

let incr c = add c 1

(** The executing domain's own shard of [c].  Writes through it bypass the
    enable flag (for explicit, always-on measurement); reading it gives
    this domain's contribution only. *)
let shard c = Domain.DLS.get c.c_key

(** Current value: the sum over all domains' shards (exact). *)
let counter_value c =
  Mutex.protect c.c_lock (fun () ->
      List.fold_left (fun acc r -> acc + !r) 0 !(c.c_shards))

(** Zero the counter on every domain. *)
let reset_counter c =
  Mutex.protect c.c_lock (fun () -> List.iter (fun r -> r := 0) !(c.c_shards))

(* ---- Histograms ------------------------------------------------------------------- *)

(** Number of log-scale buckets.  Bucket 0 holds values [<= 0]; bucket [j]
    ([1 <= j < nbuckets-1]) holds values in [\[2^(j-1), 2^j)]; the last
    bucket holds everything larger. *)
let nbuckets = 32

type hsnapshot = { buckets : int array; sum : int; count : int }

type hshard = {
  hs_buckets : int array;
  mutable hs_sum : int;
  mutable hs_count : int;
}

type histogram = {
  h_name : string;
  h_help : string;
  h_label : (string * string) option;
  h_lock : Mutex.t;
  h_shards : hshard list ref;
  h_key : hshard Domain.DLS.key;
}

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* Index of the highest set bit, plus one: 1 -> 1, 2..3 -> 2, ... *)
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    Stdlib.min (nbuckets - 1) (bits 0 v)
  end

(** Inclusive upper bound of bucket [j], as the Prometheus [le] label. *)
let bucket_le j =
  if j >= nbuckets - 1 then "+Inf"
  else if j = 0 then "0"
  else string_of_int ((1 lsl j) - 1)

let make_histogram name help label =
  let lock = Mutex.create () in
  let shards = ref [] in
  {
    h_name = name;
    h_help = help;
    h_label = label;
    h_lock = lock;
    h_shards = shards;
    h_key =
      Domain.DLS.new_key (fun () ->
          let s = { hs_buckets = Array.make nbuckets 0; hs_sum = 0; hs_count = 0 } in
          Mutex.protect lock (fun () -> shards := s :: !shards);
          s);
  }

(** Record one observation (no allocation; domain-local array update). *)
let observe h v =
  if !on then begin
    let s = Domain.DLS.get h.h_key in
    let b = bucket_of v in
    s.hs_buckets.(b) <- s.hs_buckets.(b) + 1;
    s.hs_sum <- s.hs_sum + v;
    s.hs_count <- s.hs_count + 1
  end

let empty_hsnapshot () = { buckets = Array.make nbuckets 0; sum = 0; count = 0 }

(** Merge two snapshots (element-wise sum — associative and commutative,
    which is what makes per-domain sharding exact). *)
let hmerge a b =
  {
    buckets = Array.init nbuckets (fun i -> a.buckets.(i) + b.buckets.(i));
    sum = a.sum + b.sum;
    count = a.count + b.count;
  }

(** Build a snapshot from raw observations without touching the registry
    (the associativity tests use this). *)
let hsnapshot_of_list vs =
  let buckets = Array.make nbuckets 0 in
  let sum = ref 0 and count = ref 0 in
  List.iter
    (fun v ->
      buckets.(bucket_of v) <- buckets.(bucket_of v) + 1;
      sum := !sum + v;
      Stdlib.incr count)
    vs;
  { buckets; sum = !sum; count = !count }

(** Current distribution: the merge over all domains' shards. *)
let histogram_snapshot h =
  Mutex.protect h.h_lock (fun () ->
      List.fold_left
        (fun acc s ->
          hmerge acc
            { buckets = Array.copy s.hs_buckets; sum = s.hs_sum; count = s.hs_count })
        (empty_hsnapshot ()) !(h.h_shards))

(* ---- Gauges ----------------------------------------------------------------------- *)

type gauge = {
  g_name : string;
  g_help : string;
  g_label : (string * string) option;
  g_cell : int Atomic.t;
}

let gauge_set g v = if !on then Atomic.set g.g_cell v
let gauge_add g n = if !on then ignore (Atomic.fetch_and_add g.g_cell n)
let gauge_incr g = gauge_add g 1
let gauge_decr g = gauge_add g (-1)
let gauge_value g = Atomic.get g.g_cell

(* ---- Registry --------------------------------------------------------------------- *)

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry_lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let key_of name label =
  match label with
  | None -> name
  | Some (k, v) -> Printf.sprintf "%s{%s=%s}" name k v

let register name label mk classify =
  let key = key_of name label in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry key with
      | Some m -> (
          match classify m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s re-registered with a different kind" key))
      | None ->
          let v, m = mk () in
          Hashtbl.add registry key m;
          v)

(** Create (or fetch) the counter [name].  Registration is idempotent:
    the same name + label yields the same counter. *)
let counter ?(help = "") ?label name =
  register name label
    (fun () ->
      let c = make_counter name help label in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

(** Create (or fetch) the gauge [name]. *)
let gauge ?(help = "") ?label name =
  register name label
    (fun () ->
      let g =
        { g_name = name; g_help = help; g_label = label; g_cell = Atomic.make 0 }
      in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

(** Create (or fetch) the histogram [name]. *)
let histogram ?(help = "") ?label name =
  register name label
    (fun () ->
      let h = make_histogram name help label in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

(* ---- Scraping --------------------------------------------------------------------- *)

(** One scraped value. *)
type value = V_counter of int | V_gauge of float | V_histogram of hsnapshot

type sample = {
  s_name : string;
  s_help : string;
  s_label : (string * string) option;
  s_value : value;
}

let sample_of_metric = function
  | Counter c ->
      {
        s_name = c.c_name;
        s_help = c.c_help;
        s_label = c.c_label;
        s_value = V_counter (counter_value c);
      }
  | Gauge g ->
      {
        s_name = g.g_name;
        s_help = g.g_help;
        s_label = g.g_label;
        s_value = V_gauge (float_of_int (gauge_value g));
      }
  | Histogram h ->
      {
        s_name = h.h_name;
        s_help = h.h_help;
        s_label = h.h_label;
        s_value = V_histogram (histogram_snapshot h);
      }

let registered () =
  Mutex.protect registry_lock (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])

(** Scrape every registered metric, sorted by (name, label) for
    deterministic output. *)
let scrape () =
  let samples = List.map sample_of_metric (registered ()) in
  List.sort
    (fun a b ->
      match compare a.s_name b.s_name with 0 -> compare a.s_label b.s_label | c -> c)
    samples

(** Zero every registered metric (shards included). *)
let reset () =
  List.iter
    (function
      | Counter c -> reset_counter c
      | Gauge g -> Atomic.set g.g_cell 0
      | Histogram h ->
          Mutex.protect h.h_lock (fun () ->
              List.iter
                (fun s ->
                  Array.fill s.hs_buckets 0 nbuckets 0;
                  s.hs_sum <- 0;
                  s.hs_count <- 0)
                !(h.h_shards)))
    (registered ())

(** Find a scraped counter value by name (testing convenience). *)
let find_counter samples name =
  List.find_map
    (fun s ->
      match s.s_value with
      | V_counter v when s.s_name = name && s.s_label = None -> Some v
      | _ -> None)
    samples

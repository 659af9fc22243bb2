(** The batched packet loop, serial or flow-sharded (§6's concurrency
    recipe, applied end-to-end).

    This is the driver's one packet loop.  It pulls an
    {!Hilti_rt.Iosrc.t} a batch at a time ({!Hilti_rt.Iosrc.read_batch}),
    runs a pure per-packet [process] over the batch, then replays the
    results through a serial per-packet [before]/[consume] pair in packet
    order, and closes each batch with one [after_batch] epoch.

    With [~shards:0] all of it runs inline on the calling domain.  With
    [shards >= 1] the loop partitions the packet path the way the paper's
    runtime partitions virtual threads: a {e dispatcher} (the calling
    domain) stamps every packet with a global sequence number and fans
    each batch out to [shards] worker domains over {!Hilti_rt.Spsc_ring}s,
    choosing the shard with a symmetric flow hash so both directions of a
    connection land on the same worker.

    Each shard owns its state outright — parser instances, session
    tables, timer managers, and (through the domain-sharded
    {!Hilti_obs.Metrics} shards) its metrics — and never takes a lock on
    the fast path: the only cross-domain traffic is the batch rings.

    Workers return per-packet results tagged with the packet's sequence
    number.  The dispatcher doubles as the {e collector}: it k-way-merges
    the shards' result logs back into global sequence order and replays
    exactly the zero-shard schedule, so a sharded run produces output
    byte-identical to a serial one.  Ordering holds because every ring
    preserves order, every shard receives one (possibly empty) sub-batch
    per global batch, and results within a shard are emitted in input
    order.

    Backpressure is end-to-end: input rings bound how far the dispatcher
    can run ahead of a slow shard, output rings bound how far shards run
    ahead of the collector, and the dispatcher reclaims ring slots by
    collecting the oldest in-flight batch whenever a push would block. *)

open Hilti_types

type stats = {
  mutable packets : int;  (** packets replayed in sequence order *)
  mutable batches : int;  (** global batches read *)
  mutable outputs : int;  (** results delivered to [consume] *)
}

(** How the plane times its two phases: [Phases (p, c)] charges each
    batch's [process] pass to [p] (on whichever domain runs it) and its
    [before]/[consume] replay to [c]; [Untimed] leaves timing to the
    caller (for callbacks whose own profiled blocks nest). *)
type timing = Untimed | Phases of Hilti_rt.Profiler.t * Hilti_rt.Profiler.t

(** The default batch size. *)
let default_batch = 256

(** Filler for {!Hilti_rt.Iosrc.read_batch} buffers: slots are reset to it
    once consumed, so a buffer holds no frame past its batch. *)
let null_packet = { Hilti_rt.Iosrc.ts = Time_ns.epoch; data = "" }

let m_batches =
  Hilti_obs.Metrics.counter "shard_batches"
    ~help:"Global batches dispatched to the shard rings"

let m_outputs =
  Hilti_obs.Metrics.counter "shard_outputs_merged"
    ~help:"Shard results merged back into sequence order"

let m_inflight =
  Hilti_obs.Metrics.gauge "shard_inflight_batches"
    ~help:"Batches dispatched but not yet collected"

let in_phase prof f =
  match prof with
  | None -> f ()
  | Some p ->
      Hilti_obs.Trace.with_span ~cat:"analyzer" p.Hilti_rt.Profiler.name (fun () ->
          Hilti_rt.Profiler.time p f)

(* Read [src] a batch at a time into one reused buffer, calling [f pkts n]
   for every non-empty batch; the used slots are reset afterwards. *)
let iter_batches src batch f =
  let pkts = Array.make batch null_packet in
  let eof = ref false in
  while not !eof do
    let n = Hilti_rt.Iosrc.read_batch src pkts batch in
    if n < batch then eof := true;
    if n > 0 then begin
      f pkts n;
      Array.fill pkts 0 n null_packet
    end
  done

(* The zero-shard loop: every stage inline on the calling domain, results
   kept in one reusable batch array. *)
let run_inline ~batch ~process_in ~consume_in ~st ~process ~after_batch ~before
    ~consume src stats =
  let outs = Array.make batch None in
  iter_batches src batch (fun pkts n ->
      let base = stats.packets in
      in_phase process_in (fun () ->
          for i = 0 to n - 1 do
            outs.(i) <- process st ~seq:(base + i) pkts.(i)
          done);
      in_phase consume_in (fun () ->
          for i = 0 to n - 1 do
            let seq = base + i in
            before ~seq ~ts:pkts.(i).Hilti_rt.Iosrc.ts;
            match outs.(i) with
            | Some o ->
                outs.(i) <- None;
                stats.outputs <- stats.outputs + 1;
                consume ~seq o
            | None -> ()
          done);
      stats.packets <- base + n;
      stats.batches <- stats.batches + 1;
      after_batch ~n ~ts:pkts.(n - 1).Hilti_rt.Iosrc.ts)

let run_sharded ~shards ~batch ~ring ~process_in ~consume_in ~shard_of ~init
    ~process ~after_batch ~before ~consume src stats =
  (* Input: one (seq, packet) sub-batch per shard per global batch.
     Output: the shard's results for that sub-batch, seq-ascending. *)
  let in_rings : (int * Hilti_rt.Iosrc.packet) array Hilti_rt.Spsc_ring.t array =
    Array.init shards (fun _ -> Hilti_rt.Spsc_ring.create ~capacity:ring ())
  in
  let out_rings =
    Array.init shards (fun _ -> Hilti_rt.Spsc_ring.create ~capacity:ring ())
  in
  let error : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
  let worker sid =
    let in_r = in_rings.(sid) and out_r = out_rings.(sid) in
    try
      let st = init sid in
      let rec loop () =
        match Hilti_rt.Spsc_ring.pop in_r with
        | Some pkts ->
            let outs = ref [] in
            if Array.length pkts > 0 then
              in_phase process_in (fun () ->
                  Array.iter
                    (fun (seq, p) ->
                      match process st ~seq p with
                      | Some o -> outs := (seq, o) :: !outs
                      | None -> ())
                    pkts);
            Hilti_rt.Spsc_ring.push out_r (Array.of_list (List.rev !outs));
            loop ()
        | None -> Hilti_rt.Spsc_ring.close out_r
      in
      loop ()
    with e ->
      ignore
        (Atomic.compare_and_set error None (Some (e, Printexc.get_raw_backtrace ())));
      (* Fail open: close our output (the collector will notice) and keep
         draining input so the dispatcher can never block on a dead shard. *)
      Hilti_rt.Spsc_ring.close out_r;
      let rec drain () =
        match Hilti_rt.Spsc_ring.pop in_r with Some _ -> drain () | None -> ()
      in
      drain ()
  in
  let domains = Array.init shards (fun sid -> Domain.spawn (fun () -> worker sid)) in
  (* One entry per dispatched-but-uncollected batch: for each packet its
     (seq, ts, shard) — everything the collector needs to replay the
     zero-shard schedule without the packet itself. *)
  let inflight : (int * Time_ns.t * int) array Queue.t = Queue.create () in
  let raise_shard_error () =
    match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> failwith "Shard_plane: shard closed its output unexpectedly"
  in
  let collect_one () =
    let meta = Queue.pop inflight in
    Hilti_obs.Metrics.gauge_set m_inflight (Queue.length inflight);
    (* Output rings deliver exactly one record per global batch, in batch
       order, so the heads across all shards belong to this batch. *)
    let outs =
      Array.map
        (fun r ->
          match Hilti_rt.Spsc_ring.pop r with
          | Some o -> o
          | None -> raise_shard_error ())
        out_rings
    in
    let idx = Array.make shards 0 in
    in_phase consume_in (fun () ->
        Array.iter
          (fun (seq, ts, sid) ->
            before ~seq ~ts;
            let o = outs.(sid) in
            let i = idx.(sid) in
            if i < Array.length o && fst o.(i) = seq then begin
              idx.(sid) <- i + 1;
              stats.outputs <- stats.outputs + 1;
              Hilti_obs.Metrics.incr m_outputs;
              consume ~seq (snd o.(i))
            end)
          meta);
    let n = Array.length meta in
    stats.packets <- stats.packets + n;
    let _, last_ts, _ = meta.(n - 1) in
    after_batch ~n ~ts:last_ts
  in
  let teardown () =
    Array.iter Hilti_rt.Spsc_ring.close in_rings;
    Array.iter
      (fun r ->
        let rec d () =
          match Hilti_rt.Spsc_ring.pop r with Some _ -> d () | None -> ()
        in
        d ())
      out_rings;
    Array.iter Domain.join domains
  in
  try
    let max_inflight = 2 * ring in
    let seq = ref 0 in
    iter_batches src batch (fun pkts n ->
        (* Partition the batch by shard, preserving order. *)
        let per = Array.make shards [] in
        let meta =
          Array.init n (fun i ->
              let p = pkts.(i) in
              let s = shard_of p in
              let s = if s < 0 || s >= shards then 0 else s in
              let sq = !seq + i in
              per.(s) <- (sq, p) :: per.(s);
              (sq, p.Hilti_rt.Iosrc.ts, s))
        in
        seq := !seq + n;
        for sid = 0 to shards - 1 do
          let sub = Array.of_list (List.rev per.(sid)) in
          while not (Hilti_rt.Spsc_ring.try_push in_rings.(sid) sub) do
            (* A full ring implies at least [ring] fully-dispatched batches
               in flight — reclaim a slot by collecting the oldest. *)
            collect_one ()
          done
        done;
        Queue.add meta inflight;
        stats.batches <- stats.batches + 1;
        Hilti_obs.Metrics.incr m_batches;
        Hilti_obs.Metrics.gauge_set m_inflight (Queue.length inflight);
        if Queue.length inflight >= max_inflight then collect_one ());
    Array.iter Hilti_rt.Spsc_ring.close in_rings;
    while not (Queue.is_empty inflight) do
      collect_one ()
    done;
    Array.iter Domain.join domains;
    match Atomic.get error with Some _ -> raise_shard_error () | None -> ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    teardown ();
    (match Atomic.get error with
    | Some (se, sbt) when se == e -> Printexc.raise_with_backtrace se sbt
    | _ -> ());
    Printexc.raise_with_backtrace e bt

(** Run the packet loop over [src].

    [init] builds a shard's private state {e on the shard's domain}
    ([init 0] on the calling domain at zero shards).  [process] handles
    one packet and returns its result, if any; it must depend only on its
    shard's state and the packet.  [before] runs on the calling domain for
    {e every} packet in global sequence order (serial per-packet
    bookkeeping: timers, stats); [consume] runs right after the [before]
    of the packet that produced the result.  [after_batch] runs on the
    calling domain once per batch, after every packet of the batch has
    been consumed, with the batch's packet count and last timestamp — the
    batch-granular epoch point (one timer advance / stats scrape per
    batch instead of per packet).  [timing] says which profilers the
    [process] pass and the [before]/[consume] replay are charged to.

    At [~shards:0] each batch is one read, [process] over the batch, the
    [before]/[consume] replay, then [after_batch].  At [shards >= 1],
    [process] runs on the worker domain [shard_of] picks (clamped into
    range; use {!Hilti_net.Flow.shard} on a peeked flow), and the
    collector replays the same schedule, so [before], [consume] and
    [after_batch] see exactly the zero-shard call sequence for the same
    [batch].

    Exceptions raised by shard callbacks are re-raised here after the
    plane is torn down. *)
let run ~shards ?(batch = default_batch) ?(ring = 8) ~timing ~shard_of ~init
    ~process ?(after_batch = fun ~n:_ ~ts:_ -> ()) ~before ~consume
    (src : Hilti_rt.Iosrc.t) : stats =
  if shards < 0 then invalid_arg "Shard_plane.run: shards must be >= 0";
  if batch < 1 then invalid_arg "Shard_plane.run: batch must be >= 1";
  if ring < 1 then invalid_arg "Shard_plane.run: ring must be >= 1";
  let stats = { packets = 0; batches = 0; outputs = 0 } in
  let process_in, consume_in =
    match timing with Untimed -> (None, None) | Phases (p, c) -> (Some p, Some c)
  in
  if shards = 0 then
    run_inline ~batch ~process_in ~consume_in ~st:(init 0) ~process ~after_batch
      ~before ~consume src stats
  else
    run_sharded ~shards ~batch ~ring ~process_in ~consume_in ~shard_of ~init
      ~process ~after_batch ~before ~consume src stats;
  stats

(** Session tables: per-connection state keyed by canonical flow, with
    idle-expiration through the runtime's expiring map — the "session tables
    with built-in state management" component the paper's intro promises. *)

open Hilti_types

type dir = Orig | Resp
(** Direction of a packet relative to the connection originator (the
    endpoint that sent the first packet we saw). *)

type 'a conn = {
  flow : Flow.t;  (* as first seen: src = originator *)
  mutable state : 'a;
  started : Time_ns.t;
  mutable last : Time_ns.t;
  mutable orig_packets : int;
  mutable resp_packets : int;
}

type 'a t = {
  table : 'a conn Hilti_rt.Exp_map.t;
      (* keyed by {!Flow.packed_key}: one flat string per flow, hashed
         once per lookup *)
  fresh : Flow.t -> Time_ns.t -> 'a;
  mutable created : int;
  mutable removed_cb : ('a conn -> unit) option;
}

let m_created =
  Hilti_obs.Metrics.counter "flow_connections_created"
    ~help:"Connections instantiated by session tables"

let m_live =
  Hilti_obs.Metrics.gauge "flow_connections_live"
    ~help:"Connections currently held in session tables"

let m_evicted =
  Hilti_obs.Metrics.counter "connections_evicted"
    ~help:"Connections dropped by idle timeout"

let create ?timeout ?timer_mgr fresh =
  (* Session tables routinely hold thousands of live connections; start
     the bucket table big enough that steady growth does not rehash the
     whole key set several times over. *)
  let table = Hilti_rt.Exp_map.create ~size:4096 () in
  (match (timeout, timer_mgr) with
  | Some ival, Some mgr ->
      Hilti_rt.Exp_map.set_timeout table (Hilti_rt.Expire.Access ival) mgr
  | _ -> ());
  let t = { table; fresh; created = 0; removed_cb = None } in
  (* Idle eviction flushes connection state through the [on_remove]
     callback, the analyzers' one teardown path. *)
  Hilti_rt.Exp_map.set_on_expire table (fun _canon conn ->
      Hilti_obs.Metrics.incr m_evicted;
      Hilti_obs.Metrics.gauge_decr m_live;
      match t.removed_cb with Some cb -> cb conn | None -> ());
  t

let on_remove t cb = t.removed_cb <- Some cb

(** Connections dropped by idle timeout so far. *)
let expired t = Hilti_rt.Exp_map.expired_total t.table

let size t = Hilti_rt.Exp_map.size t.table

let created t = t.created

(** Find or create the connection for [flow] (packet orientation); returns
    the connection and the packet's direction within it. *)
let lookup t ~ts flow =
  let key = Flow.packed_key flow in
  match Hilti_rt.Exp_map.find_opt t.table key with
  | Some conn ->
      conn.last <- ts;
      let dir = if Flow.equal conn.flow flow then Orig else Resp in
      (match dir with
      | Orig -> conn.orig_packets <- conn.orig_packets + 1
      | Resp -> conn.resp_packets <- conn.resp_packets + 1);
      (conn, dir)
  | None ->
      let conn =
        {
          flow;
          state = t.fresh flow ts;
          started = ts;
          last = ts;
          orig_packets = 1;
          resp_packets = 0;
        }
      in
      t.created <- t.created + 1;
      Hilti_obs.Metrics.incr m_created;
      Hilti_obs.Metrics.gauge_incr m_live;
      (* The probe above just missed, so skip [insert]'s presence check. *)
      Hilti_rt.Exp_map.add_fresh t.table key conn;
      (conn, Orig)

let fold f t init = Hilti_rt.Exp_map.fold (fun _ conn acc -> f conn acc) t.table init

(** The one clock for durations: [CLOCK_MONOTONIC] in nanoseconds, read
    through bechamel's allocation-free stub.  Unlike wall-clock time it
    never steps, so a difference of two readings is never negative or
    inflated by an NTP adjustment.  Profiler blocks, trace spans and the
    drivers' and benchmarks' timings all use it; wall-clock epoch time
    remains only where a point in time is stamped (the JSONL [ts_ns]). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(** Run [f]; its result and the elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.of_int (now_ns () - t0))

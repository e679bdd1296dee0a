(** Render a per-run cost breakdown from an {!Obs} registry and the
    machine's {!Ledger}. *)

val render : ?title:string -> ?profile:Profile.t -> ledger:Ledger.t -> Obs.t -> string
(** Aligned text table: counters (with derived cache hit rates for any
    [<p>.hit]/[<p>.miss] or [<p>.hit]/[<p>.fault] counter pair), costs
    (one row per booked ledger account: events, total, and min, p50,
    p99 and max of its bookings). When a flight recorder is attached to
    the registry, a trace-ring health section follows
    (capacity/recorded/held/high-water/dropped) with an explicit
    warning when the ring wrapped — a truncated trace never passes
    silently. With [profile], appends the guest hot-function
    table ({!profile_table}). Ends with the ledger's account tree, its
    conservation audit line and (when a profiler drove the context)
    the function x account matrix. *)

val profile_table : ?top:int -> Profile.t -> string
(** Top-N (default 10) guest functions by self instruction count:
    calls, self/total instructions, self/total virtual-clock ms, and
    self share of all attributed instructions. *)

val to_json : ?profile:Profile.t -> ledger:Ledger.t -> Obs.t -> string
(** The same data as a single machine-readable JSON object with
    [counters], [histograms] (keyed by ledger account: count, sum_ns,
    min_ns, max_ns) and [ledger] (a {!Ledger.snapshot}: accounts,
    audit totals, matrix) members — plus [trace] (ring health) when a
    recorder is attached and [wasm_profile] (per-function
    calls/instructions/ns) when [profile] is given. *)

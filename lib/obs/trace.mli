(** Flight recorder: a bounded ring buffer of timestamped structured
    events on the simulator's virtual clock.

    The {!Obs} registry aggregates; the recorder keeps the event-level
    timeline (span begin/end, ECALL/OCALL transitions, EPC faults,
    cache misses, WASI hostcalls, pager I/O) so a run can be replayed
    as a trace. Export with {!Trace_export} and open the result in
    [ui.perfetto.dev]. Bounded: once the ring wraps, the oldest events
    are overwritten (and counted in {!dropped}); the newest always
    survive. Disabled recorders cost one branch per would-be event. *)

type phase = Begin | End | Instant | Counter

type event = {
  ts : int;  (** virtual ns *)
  name : string;
  cat : string;  (** category: ["sgx"], ["epc"], ["ipfs"], ["wasi"], ... *)
  phase : phase;
  args : (string * int) list;
}

type t

val create : ?capacity:int -> ?enabled:bool -> now:(unit -> int) -> unit -> t
(** [now] supplies virtual-clock timestamps. Default capacity is 65536
    events; default enabled. *)

val set_enabled : t -> bool -> unit
val capacity : t -> int

val record :
  t -> cat:string -> phase:phase -> ?args:(string * int) list -> string -> unit
(** Append one event stamped [now ()]. No-op when disabled. *)

val instant : t -> cat:string -> ?args:(string * int) list -> string -> unit
val begin_span : t -> cat:string -> ?args:(string * int) list -> string -> unit
val end_span : t -> cat:string -> ?args:(string * int) list -> string -> unit

val counter : t -> cat:string -> string -> (string * int) list -> unit
(** A sampled value series (rendered as a counter track in Perfetto),
    e.g. EPC resident pages. *)

val total : t -> int
(** Events ever recorded, including overwritten ones. *)

val length : t -> int
(** Events currently held (at most the capacity). *)

val dropped : t -> int
(** Events lost to ring wrap-around since the last {!clear}:
    [total - length]. A non-zero value means the exported timeline is
    truncated at its start — {!Trace_export} stamps it into the trace
    metadata and {!Report} surfaces it, so a wrapped trace can never
    pass for a complete one. *)

val lost : t -> int
(** Events ever overwritten by wrap-around, accumulated across
    {!clear}s (which themselves discard intentionally and do not
    count). *)

val high_water : t -> int
(** Most events the ring ever held at once (survives {!clear}). Below
    the capacity, the ring never filled and nothing can have wrapped;
    at capacity, the ring filled — check {!dropped}/{!lost} for how
    much history was overwritten. *)

val clear : t -> unit

val events : t -> event list
(** Surviving events, oldest first. Timestamps are non-decreasing (the
    virtual clock never goes backwards). *)

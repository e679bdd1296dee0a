(** Telemetry registry: counters and span tracing on the simulator's
    virtual clock. Where virtual time went is the machine's
    {!Ledger}: its accounts, with the distribution of each one's
    bookings.

    One registry rides on each simulated machine; every layer (SGX
    transitions, EPC paging, protected-FS node cache, WASI dispatch, the
    database pager, the Wasm engine) records into it so a single run can
    answer "what did this cost and why". See {!Report} for rendering. *)

type t

val create : ?now:(unit -> int) -> unit -> t
(** [now] supplies the virtual time used by spans (defaults to a frozen
    clock, making spans count-only). *)

val reset : t -> unit
(** Zeroes counters in place (handles stay valid; the snapshot lists
    what is touched since) and clears spans and the span stack. The
    attached flight recorder (if any) is left alone. *)

(** {2 Flight recorder}

    A registry optionally carries a {!Trace} ring. When one is attached,
    {!in_span} emits begin/end timeline events, and the instrumented
    layers emit instants/counters through {!emit}/{!emit_counter}. With
    no recorder attached every emission is a single [match] — tracing
    costs nothing when off. *)

val set_tracer : t -> Trace.t option -> unit
val tracer : t -> Trace.t option

val emit : t -> cat:string -> ?args:(string * int) list -> string -> unit
(** Record an instant event in the attached recorder, if any. *)

val emit_counter : t -> cat:string -> string -> (string * int) list -> unit
(** Record a counter-track sample in the attached recorder, if any. *)

(** {2 Counters}

    Counters are resolved by name once, where a layer is created; an
    event then hashes no string. Resolving lists nothing. *)

type counter

val counter : t -> string -> counter
val inc : counter -> unit
val add : counter -> int -> unit
val value : t -> string -> int
(** 0 when the counter was never touched. *)

(** {2 Spans} *)

val in_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span. Spans nest: a parent's [self_ns]
    excludes time spent in child spans, so a report can attribute cost to
    the layer that actually incurred it. Exception-safe; an exit that
    somehow skips nested exits closes the skipped spans too, so child
    time is never lost from ancestors' self-time attribution. *)

val open_span : t -> string -> unit
(** Open a span without bracketing a thunk (for spans crossing function
    boundaries). Prefer {!in_span} where the extent is lexical. *)

val close_span : t -> string -> unit
(** Close the most recently opened span with this name, first closing
    any spans still open above it (an out-of-order exit cannot corrupt
    parent self-time attribution). No-op if no such span is open. *)

type sstat = { calls : int; total_ns : int; self_ns : int }

val sstat : t -> string -> sstat option

val depth : t -> int
(** Number of currently open spans (0 outside any span). *)

(** {2 Snapshots} — sorted by name for stable reports. *)

val counters : t -> (string * int) list
val spans : t -> (string * sstat) list

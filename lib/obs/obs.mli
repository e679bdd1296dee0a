(** Telemetry registry: event counters and the flight-recorder
    attachment. Where virtual time went is the machine's {!Ledger}: its
    accounts, with the distribution of each one's bookings. When it
    went is the attached {!Trace} ring: ECALL/OCALL extents are its
    [span] Begin/End events.

    One registry rides on each simulated machine; every layer (SGX
    transitions, EPC paging, protected-FS node cache, WASI dispatch, the
    database pager, the Wasm engine) records into it so a single run can
    answer "what did this cost and why". See {!Report} for rendering. *)

type t

val create : unit -> t

val reset : t -> unit
(** Zeroes counters in place: handles stay valid, and the snapshot
    lists what is touched since. *)

(** {2 Flight recorder}

    A registry optionally carries a {!Trace} ring. When one is attached,
    the instrumented layers emit instants and counter samples through
    {!emit}/{!emit_counter}, and emit Begin/End events into
    {!tracer} directly. With no recorder attached every emission is a
    single [match] — tracing costs nothing when off. *)

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

val counters : t -> (string * int) list
(** The counters touched since the last {!reset}, sorted by name for
    stable reports. *)

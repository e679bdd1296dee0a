(** Guest-level calling-context profiler.

    A shadow call stack is maintained by enter/exit events at every
    Wasm-function activation (both engines funnel through the same call
    path, so one pair of hooks covers the interpreter and AoT closures).
    Nodes of the resulting calling-context tree (CCT) accumulate, per
    call path: call counts, self instruction counts (from the engine's
    fuel meter) and self virtual-clock cycles.

    Attribution rule: time and fuel are charged to the frame on top of
    the shadow stack when they elapse. Host functions (WASI hostcalls,
    SQLite/IPFS crossings) push no frame, so their cost accrues to the
    calling Wasm frame's self figures — enclave-boundary cost shows up
    where it is incurred.

    The profiler is engine-agnostic: functions are integer indices, and
    a pluggable namer (typically {!Twine_wasm.Ast.func_name} over the
    module's name section) makes output symbolic. *)

type t

val create : ?tracer:Trace.t -> ?now:(unit -> int) -> unit -> t
(** [now] supplies virtual-clock timestamps (default: a constant clock,
    yielding pure instruction-count profiles). When [tracer] is given,
    every enter/exit also emits a ["wasm"]-category span into the
    flight-recorder ring, interleaving guest frames with the host's
    ECALL/EPC tracks in Perfetto. *)

val set_namer : t -> (int -> string) -> unit
(** Install the function-index → symbol mapping. The module is usually
    only known at run time, after the profiler is created. *)

val name : t -> int -> string
(** Symbol for a function index via the installed namer (default
    ["func[%d]"]). *)

(** {2 Event stream (the shadow stack)} *)

val enter : t -> fuel:int -> int -> unit
(** A function activation began. [fuel] is the engine's cumulative
    instruction counter; the delta since the last event is credited to
    the caller's self figures. *)

val exit : t -> fuel:int -> int -> unit
(** The matching activation ended (normally or by unwinding). The second
    argument is the function index; mismatched or excess exits are
    ignored, so a trap that unwinds several frames leaves the profile
    consistent. *)

val depth : t -> int
(** Current shadow-stack depth (0 at top level). *)

val connect_ledger : t -> Ledger.t -> unit
(** Mirror the shadow-stack top into the ledger's context: while a
    guest frame is live, every nanosecond the machine books lands in
    that frame's row of the ledger's function x account matrix. The
    context is cleared when the stack empties. *)

(** {2 Aggregation} *)

type fn = {
  fn_id : int;
  fn_name : string;
  calls : int;
  self_fuel : int;  (** instructions retired in the function itself *)
  total_fuel : int;  (** self + callees (recursion counted once) *)
  self_cycles : int;  (** virtual-clock ns, incl. hostcalls it makes *)
  total_cycles : int;
}

val functions : t -> fn list
(** Per-function flat profile, aggregated over all call paths, sorted by
    [self_fuel] descending (ties by index). Recursive calls contribute
    to [total_*] only once per outermost activation. *)

val parity : t -> t -> Audit.t
(** Engine parity of two profiles of the same run, as an audit: total =
    the functions either profile saw, part = those whose {!functions}
    record is identical in both. The residue counts the functions that
    differ; [bench profile] exits 1 on it. *)

val total_fuel : t -> int
(** Instructions attributed across the whole tree (= the engine's fuel
    delta over the profiled region when every frame is balanced). *)

val iter : t -> (stack:int list -> calls:int -> self_fuel:int -> self_cycles:int -> unit) -> unit
(** Depth-first walk of the CCT. [stack] is the call path, outermost
    first; one callback per distinct path (a call edge [a -> b] is any
    adjacent pair in a path, its count the target node's [calls]). *)

val edges : t -> ((int * int) * int) list
(** Call-edge counts [(caller, callee), n] summed over the CCT; the
    caller of a root frame is [-1]. *)

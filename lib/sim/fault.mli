(** Deterministic fault-injection plane.

    A {!plan} is a seeded set of rules targeting named {e sites} — the
    fixed strings of {!sites}, such as ["backing.write"] or
    ["enclave.ecall"] — that instrumented layers consult on every
    operation. The plan is driven purely by per-site operation counters
    and a private deterministic PRNG: no wall clock, no global
    [Random] state, so the same seed and the same workload produce the
    same injected-fault sequence, every time.

    A plan lives on the machine that armed it
    ([Twine_sgx.Machine.arm_faults]), and each site consults the plan of
    its own machine: a site costs one match unless a plan is armed. *)

type action =
  | Torn of float
      (** keep only this fraction of the payload (a torn write) *)
  | Corrupt  (** flip one payload bit (detected by authentication) *)
  | Drop  (** the operation is silently lost *)
  | Fail  (** raise {!Transient} — a recoverable host-side error *)
  | Crash  (** raise {!Crashed} — power loss / enclave abort *)
  | Delay of int  (** charge this many virtual ns, then proceed *)

type rule
(** One targeting rule: which site, what to inject, and when. *)

type injection = { site : string; op : int; action : action }
(** One recorded injection: the site, its 1-based operation index at
    the moment of injection, and the action taken. *)

type plan

exception Transient of string
(** A recoverable fault (e.g. a failed untrusted I/O operation that a
    caller may retry). *)

exception Crashed of string
(** An unrecoverable fault at this site: simulated power loss on a
    storage path, or an asynchronous enclave abort on a transition. *)

val rule :
  ?nth:int ->
  ?prob:float ->
  ?count:int ->
  ?from_ns:int ->
  ?until_ns:int ->
  string ->
  action ->
  rule
(** [rule site action] fires [action] at [site]. [nth] fires on exactly
    the n-th operation (1-based); otherwise each operation fires with
    probability [prob] (default 0, i.e. never). [count] caps the total
    number of injections from this rule (default 1 for [nth] rules,
    unlimited for probabilistic ones). [from_ns]/[until_ns] restrict the
    rule to the virtual-time window [[from_ns, until_ns)] so chaos can
    target, say, only the steady-state phase of a serving run; windowed
    rules need the plan armed with a clock source ({!arm}'s [now]) and
    never fire without one. The window check precedes any PRNG draw, so
    out-of-window operations consume no randomness and the injected
    sequence replays identically across re-arms.
    @raise Invalid_argument on an empty window. *)

val plan : ?seed:string -> rule list -> plan
(** Build a plan. [seed] (default ["fault"]) keys the PRNG used by
    probabilistic rules. *)

val arm : ?notify:(injection -> unit) -> ?now:(unit -> int) -> plan -> unit
(** Ready [plan] for a run. [notify] runs at every injection, before
    the action takes effect — the simulator uses it to book the fault
    into the machine ledger and the trace ring. [now] supplies the
    virtual clock that windowed rules ([from_ns]/[until_ns]) test
    against; omitting it leaves those rules inactive. Arming resets the
    plan's op counters and injection log, so a plan can be re-armed to
    replay the identical sequence. *)

val sites : string list
(** Every site a layer consults: the enclave boundary, a WASI OCALL to
    the host, and the protected FS's untrusted store. *)

val consult : plan -> string -> action option
(** Site hook: advance the site's op counter in [plan] and return the
    action to inject here, if any. [None] (the common case) means
    proceed normally. *)

val injections : plan -> injection list
(** The injection log accumulated since the plan was last armed, in
    order. *)

val hash_seed : string -> int64
(** The seed-string hash used to key the plan PRNG (FNV-1a, never 0).
    Exposed for {!Crashpoint}'s seeded replay variants. *)

val mutilate : action -> string -> string
(** Apply a payload-transforming action ([Torn]/[Corrupt]) to a write
    payload; other actions return the payload unchanged. Deterministic:
    the flipped bit and the torn length depend only on the payload. *)

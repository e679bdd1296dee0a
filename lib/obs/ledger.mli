(** Cycle ledger: hierarchical cost accounts with a conservation audit.

    Every charge site of the simulator books its nanoseconds into a
    dotted account path (["sgx.transition.ecall"], ["epc.fault"],
    ["mee.copy"], ["wasi.fd_read"], ...). Because the machine's clock
    only advances through {!Twine_sgx.Machine.charge}, the ledger can
    prove the books balance: {!audit} compares the booked total against
    elapsed virtual time and reports any unattributed residue. A zero
    residue means every virtual nanosecond of the run is attributed to
    exactly one account — the invariant the tests and the bench harness
    assert, and the property that turns a regression report into a
    diagnosis ({!diff} ranks which accounts absorbed a delta).

    A ledger also carries an optional {e context}: the guest function
    currently on top of the profiler's shadow stack ({!Profile} sets it
    when connected). Charges booked under a context additionally land in
    a function × account matrix, so a report can say "lu spends 61 % of
    its TWINE overhead in [epc.fault]". *)

type t

val create : ?now:(unit -> int) -> unit -> t
(** [now] supplies virtual time; {!audit} measures elapsed time from
    creation (or the last {!reset}) with it. *)

type account
(** Resolved by name once, where a layer is created, so a booking hashes
    no string. Resolving lists nothing in {!accounts}. *)

val account : t -> string -> account

val book : t -> account -> int -> unit
(** Book [ns] nanoseconds (and one event) to the account, and insert
    [ns] as one sample into its {!distribution}. [ns = 0] still counts
    an event. @raise Invalid_argument on negative [ns]. *)

val balance : account -> int
(** Nanoseconds booked to the account since the last {!reset}. *)

val track : account -> string
(** The account's trace counter track, [ledger.<account>], named once
    when the account is resolved. *)

val set_context : t -> string option -> unit
(** Set the guest frame charges are attributed to in the function ×
    account matrix ([None]: no frame — matrix untouched). *)

val context : t -> string option

val set_tap : t -> (string -> int -> unit) option -> unit
(** Install (or clear) a booking tap: a callback invoked on {e every}
    {!book} with the account name and nanoseconds, after the account and
    running total are updated. This is the per-request slicing primitive
    of the serving fleet ({!Twine_serve}): while a request is live, its
    tap routes each booking into that request's cycle breakdown, so the
    per-request slices sum to the ledger total by construction — O(1)
    per charge, no per-request snapshots. Cleared by {!reset}. *)

val tap : t -> (string -> int -> unit) option

type entry = { ns : int; events : int }

val ns : t -> string -> int
(** 0 for an account never booked. *)

val events : t -> string -> int

val distribution : t -> string -> Sketch.t option
(** The account's own sketch of its bookings (not a copy: read it, do
    not insert into it), one sample each: count = {!events}, sum =
    {!ns}, exact min and max, quantiles within {!Sketch.alpha}. [None]
    for an account not booked since the last {!reset}. *)

val total : t -> int
(** Sum of all booked nanoseconds. *)

val accounts : t -> (string * entry) list
(** Sorted by account name, for stable reports and tests. *)

val audit : t -> Audit.t
(** The ledger law, elapsed = booked: a positive residue is virtual
    time that passed without being booked anywhere (a charge site that
    bypassed the ledger), a negative one double-booked time. *)

val balanced : t -> bool
(** [Audit.ok (audit t)]. *)

val reset : t -> unit
(** Zero every account and clear its distribution in place (handles
    stay valid; {!accounts} lists those booked since), drop the matrix,
    the context and the tap; elapsed time restarts at [now ()]. *)

(** {2 Snapshots} — the serialisable view ([twine_cli diff] operates on
    these; schema {!schema}). *)

type snapshot = {
  elapsed_ns : int;
  booked_ns : int;
  accounts : (string * entry) list;  (** sorted by name *)
  matrix : (string * (string * int) list) list;
      (** function -> (account -> ns), both sorted by name *)
}

val snapshot : t -> snapshot

val schema : string

val to_json : snapshot -> Json.t
val of_json : Json.t -> (snapshot, string) result
val to_string : snapshot -> string
val of_string : string -> (snapshot, string) result

(** {2 Rendering} *)

val render : ?title:string -> t -> string
(** Hierarchical account tree (children sorted by cost, pass-through
    levels collapsed) with per-account share of the booked total, plus
    the audit line. *)

val render_matrix : ?top:int -> snapshot -> string
(** The function × account matrix: top-N functions (default 6) by
    booked time, each with its account breakdown. Empty string when no
    context was ever set. *)

(** {2 Differential attribution} *)

type delta = { account : string; base_ns : int; cur_ns : int; delta_ns : int }

val diff : snapshot -> snapshot -> delta list
(** Per-account deltas [current - base] over the union of accounts,
    ranked by absolute delta (ties by name); accounts at zero in both
    runs are dropped. *)

val render_diff : ?top:int -> base:snapshot -> current:snapshot -> unit -> string
(** Ranked attribution of the total delta: the elapsed-time change, the
    top-N account deltas (default 24) with their share of the elapsed
    delta, then — for the biggest account movements that carry matrix
    data — the per-function breakdown of the change. *)

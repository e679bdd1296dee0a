(** Machine-readable benchmark baselines with per-metric tolerance
    bands (the [BENCH_twine.json] artifact and the [bench check]
    regression gate).

    A baseline maps metric paths to expected values; [check] compares
    a fresh collection against a committed baseline and flags every
    guarded metric that leaves its band. Metrics with [tol = None] are
    informational (wall-clock numbers that vary with CI hardware):
    recorded for trend inspection, never gating. *)

type metric = { value : float; tol : float option }

type t = {
  meta : (string * string) list;
  metrics : (string * metric) list;
}

val schema : string

val metric : ?tol:float -> float -> metric

val v : ?tol:float -> string -> int -> string * metric
(** Integer metric as a [(path, metric)] pair. *)

val vf : ?tol:float -> string -> float -> string * metric

val create : ?meta:(string * string) list -> (string * metric) list -> t

val to_json : t -> Json.t
val to_string : t -> string
val of_json : Json.t -> (t, string) result
(** Every metric needs a finite [value] and a [tol] that is [null] or a
    finite number [>= 0]; anything else is an [Error], so a malformed
    band can never pass as an informational metric. *)

val of_string : string -> (t, string) result

type verdict = {
  path : string;
  expected : float;
  got : float option;  (** [None]: metric missing from the current run *)
  tol : float option;
  ok : bool;
}

val deviation : expected:float -> got:float -> float
(** Relative deviation, denominator floored at 1.0 so near-zero
    counters do not explode. *)

val check : baseline:t -> current:t -> verdict list
(** One verdict per baseline metric, in baseline order. A metric
    missing from [current] is a failure. Extra metrics in [current]
    are ignored (they join the baseline when it is regenerated). *)

val all_ok : verdict list -> bool

val render : verdict list -> string
(** Aligned table with drift percentages and per-metric verdicts.
    Informational metrics ([tol = None]) that were collected show their
    drift with verdict [info] (they never gate); a metric missing from
    the current run renders [FAIL] whatever its band. *)

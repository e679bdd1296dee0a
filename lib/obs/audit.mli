(** Conservation audits: one law, its total, its parts and the residue.

    Each conservation law of the simulator has one producer of a {!t}:
    the cycle ledger, elapsed = booked ({!Ledger.audit}); per-request
    attribution, booked = requests + idle + failover
    ([Twine_serve.Serve.attribution], the chaos law on a chaos run); and
    per-statement SQL work, work = operators + overhead
    ([Twine_sqldb.Db.audit]). Bench gates, CLI exit codes, reports and
    tests all read these values, so the residue arithmetic, the verdict
    and the printed line exist only here. *)

type t = {
  law : string;
  unit : string;  (** printed after every figure; [""] prints none *)
  total : string * int;  (** the named quantity the parts must explain *)
  parts : (string * int) list;
}

val residue : t -> int
(** [snd total - sum of parts]: positive when some of the total went
    unexplained, negative when something was counted twice. *)

val ok : t -> bool
(** [residue a = 0]. *)

val render : t -> string
(** The audit line, without a newline:
    [<law>: <total> = <part> + ... + residue R (balanced|UNBALANCED)]. *)

val check : t list -> t list
(** Every failed audit, in input order; [[]] when all laws hold. The
    bench harness and the CLI map a non-empty result to exit 1. *)

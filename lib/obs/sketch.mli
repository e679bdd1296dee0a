(** Deterministic, mergeable, bounded-memory quantile sketch.

    Log-linear buckets in the DDSketch family, specialised to
    non-negative integers (virtual nanoseconds): each power-of-two
    binade is subdivided into [2{^sb_bits}] equal-width linear
    subbuckets, so every bucket's relative width — and therefore the
    worst-case relative error of a midpoint estimate — is bounded by
    {!alpha} = 1 / 2{^sb_bits+1}. Values below [2{^sb_bits}] get a
    bucket each and are exact. Exact count/sum/min/max ride alongside,
    so [q = 0.] and [q = 1.] report the true extremes.

    Everything is integer arithmetic on a fixed bucket universe:
    inserting the same multiset in any order, or merging any
    partition of it in any grouping, yields bit-identical state — the
    property the streaming serve plane leans on when per-window
    sketches from different enclaves are merged into fleet tails. A
    sketch stores only the prefix of the universe up to its largest
    bucket, grown on demand, so small values cost little memory. *)

type t

val alpha : float
(** Guaranteed relative-error bound of {!quantile} estimates
    (1/128 with the current [sb_bits = 6]). *)

val create : unit -> t

val insert : t -> int -> unit
(** O(1). @raise Invalid_argument on a negative value. *)

val merge : t -> t -> t
(** Pure: neither input is mutated. Associative and commutative, and
    [merge] after partitioned inserts equals bulk insert, bit for
    bit. *)

val count : t -> int
val sum : t -> int

val vmin : t -> int
(** Exact minimum inserted value; 0 when the sketch is empty. *)

val vmax : t -> int
(** Exact maximum inserted value; 0 when the sketch is empty. *)

val quantile : t -> float -> int option
(** Nearest-rank quantile estimate: midpoint of the covering bucket,
    clamped to the exact [vmin]/[vmax]. Within [alpha] relative error
    of the true order statistic; [None] when empty.
    @raise Invalid_argument when [q] is outside [0, 1]. *)

val to_json : t -> Json.t
(** Canonical [twine-sketch/v1]: sorted sparse [[index, count]] pairs
    plus the exact scalars. Byte-stable across runs and across
    {!of_json} round-trips. *)

val of_json : Json.t -> (t, string) result
(** Rejects wrong schema, mismatched [sb_bits], malformed buckets, or
    a [count] that disagrees with the bucket population. *)

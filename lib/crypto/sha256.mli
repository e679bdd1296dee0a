(** SHA-256 (FIPS 180-4), incremental and one-shot. Once a context exists,
    no operation on it allocates. *)

type ctx

val init : unit -> ctx

val reset : ctx -> unit
(** Return a context to the state {!init} gives. *)

val copy_into : src:ctx -> ctx -> unit
(** [copy_into ~src dst] sets [dst] to [src]'s state, so [dst] goes on
    from the bytes [src] has absorbed. [src] is unchanged. *)

val update : ctx -> string -> unit
val update_bytes : ctx -> Bytes.t -> off:int -> len:int -> unit

val finalize_into : ctx -> Bytes.t -> int -> unit
(** [finalize_into ctx out off] writes the 32-byte digest to
    [out.[off .. off+31]]. The context must be {!reset} or overwritten
    by {!copy_into} before it is used again.
    @raise Invalid_argument if the digest does not fit in [out]. *)

val finalize : ctx -> string
(** 32-byte digest, as {!finalize_into}. *)

val digest : string -> string
(** One-shot hash of a full string; 32-byte digest. *)

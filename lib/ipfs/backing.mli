(** Untrusted backing store for protected files — the host file system as
    seen from outside the enclave. Ciphertext only ever lands here. This
    is plain storage: the fault sites ["backing.read"] and
    ["backing.write"] live in {!Protected_fs}, which reaches the
    machine's fault plan through its enclave. *)

type t

val memory : unit -> t
(** In-memory store (used by tests and benches for determinism). *)

val directory : string -> t
(** Store files under a real directory on the host file system. Path
    separators, leading dots and the empty key are encoded, so keys
    (including ["."], [".."] and [""]) cannot escape or name the root. *)

val logged : Twine_sim.Crashpoint.log -> t -> t
(** Record every mutation (write/truncate/delete) of the wrapped store
    into a crash-point op log, for prefix-replay crash exploration. *)

val read : t -> string -> pos:int -> len:int -> string
(** Short reads at EOF return fewer bytes; a missing file reads as empty. *)

val write : t -> string -> pos:int -> string -> unit
(** Extends the file with zero bytes if [pos] is past its current end. *)

val size : t -> string -> int option
val exists : t -> string -> bool
val delete : t -> string -> bool
val truncate : t -> string -> int -> unit
val list : t -> string list

(** Bytes at rest: the one untrusted store behind both the protected
    file system (ciphertext only ever lands here) and the SQLite pager
    (through [Svfs.of_backing]) — the host file system as seen from
    outside the enclave. This is plain storage: the fault sites
    ["backing.read"] and ["backing.write"] live in [Protected_fs],
    which reaches the machine's fault plan through its enclave.

    A {!logged} store records every mutation and sync into a
    {!Crashpoint} log; {!replay} and {!replay_unsynced} rebuild what a
    power loss after a prefix of that log leaves behind, in a fresh
    memory store. *)

type t

val memory : unit -> t
(** In-memory store (used by tests and benches for determinism). *)

val directory : string -> t
(** Store files under a real directory on the host file system. Path
    separators, leading dots and the empty key are encoded, so keys
    (including ["."], [".."] and [""]) cannot escape or name the root. *)

val logged : Crashpoint.log -> t -> t
(** Record every mutation (write/truncate/delete) and every {!sync} of
    the wrapped store into a crash-point op log, for prefix-replay
    crash exploration. Reads are not logged. *)

val read : t -> string -> pos:int -> len:int -> string
(** Short reads at EOF return fewer bytes; a missing file reads as empty. *)

val write : t -> string -> pos:int -> string -> unit
(** Extends the file with zero bytes if [pos] is past its current end. *)

val size : t -> string -> int option
val exists : t -> string -> bool
val delete : t -> string -> bool
val truncate : t -> string -> int -> unit
val list : t -> string list

val sync : t -> string -> unit
(** A durability barrier for one key: a {!logged} store records a
    [Sync] op (the point {!replay_unsynced} never drops writes before);
    otherwise it does nothing. *)

val replay : ?torn:bool -> Crashpoint.log -> at:int -> t
(** A fresh memory store holding the first [at] operations of the log
    applied in order (in-order durability). With [torn], a half-length
    version of operation [at] is applied as well when it is a [Write]
    (the write that was in flight when power failed). *)

val replay_unsynced : seed:string -> Crashpoint.log -> at:int -> t
(** Like {!replay}, but each write issued after the last [Sync] within
    the prefix survives only with probability 1/2 (chosen by [seed]):
    a device that only guarantees ordering across sync may drop
    un-synced writes, never synced ones. *)

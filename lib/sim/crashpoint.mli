(** Crash-point exploration: record the durable-store operation log of a
    workload, then rebuild every state a power loss could have left
    behind by replaying truncated prefixes of it
    ({!Backing.replay}, {!Backing.replay_unsynced}).

    One recorder writes the log: a {!Backing.logged} store. The SQLite
    pager reaches it through [Svfs.of_backing] (file-level writes and
    syncs), the protected file system directly (key-level ciphertext
    writes); replay always rebuilds a fresh memory {!Backing}. *)

type op =
  | Write of { file : string; pos : int; data : string }
  | Truncate of { file : string; size : int }
  | Delete of { file : string }
  | Sync of { file : string }

type log

val create : unit -> log
val record : log -> op -> unit
val length : log -> int
val ops : log -> op list
(** In record order. *)

val clear : log -> unit

val describe : op -> string
(** One-line rendering for failure reports. *)

(** Intel Protected File System (IPFS) simulation — paper §IV-D/§IV-E/§V-F.

    A protected file is a sequence of 4 KiB plaintext nodes, each sealed
    with authenticated encryption (per-node IV and tag, with the node
    index as associated data so ciphertext nodes cannot be swapped within
    a file). Node IVs/tags live in an encrypted metadata header whose own
    tag acts as the Merkle root. Decrypted nodes are kept in an in-enclave
    LRU cache. Two variants are provided:

    - {b Stock}: Intel's behaviour — node structures are cleared (memset)
      when added to the cache and plaintext cleared again on eviction, and
      the ciphertext is copied from untrusted memory into the enclave
      before AES-GCM decryption (encrypt-then-MAC requires authenticated
      data to be under enclave control).
    - {b Optimised}: the paper's §V-F proposal — no clearing, and AES-CCM
      (MAC-then-encrypt) decrypting straight from the untrusted buffer,
      removing the cross-boundary copy. Up to 4.1× faster random reads.

    Commits are crash-atomic: the metadata header alternates between two
    generation-numbered slots (write-new-then-switch), and in-place node
    overwrites are preceded by a ciphertext pre-image journal keyed by
    the committed generation. {!open_file} recovers: it picks the newest
    authenticated header slot and, when a journal for that generation
    survives (the crash hit mid-commit), rolls the pre-images back — so
    an interrupted {!flush} always yields the previous committed state,
    never a half-written one and never a spurious authentication
    failure. Recovery work is charged to the [ipfs.recovery] ledger
    account, journal maintenance to [ipfs.journal].

    Known limitations faithfully reproduced: no rollback protection (an
    attacker replacing both data and metadata files with an older
    consistent pair is undetected) and metadata leakage (file size to node
    granularity, access patterns). *)

type variant = Stock | Optimized

type t
(** A protected file system instance bound to one enclave and one
    untrusted backing store. *)

type file

exception Integrity_violation of string
(** A node or header failed authentication. *)

val create :
  Twine_sgx.Enclave.t ->
  Backing.t ->
  ?variant:variant ->
  ?cache_nodes:int ->
  unit ->
  t
(** [cache_nodes] is the LRU capacity in decrypted nodes (default 48, the
    Intel SDK default). *)

val variant : t -> variant
val enclave : t -> Twine_sgx.Enclave.t

val open_file :
  t -> ?key:string -> mode:[ `Rdonly | `Rdwr | `Trunc ] -> string -> file
(** Opens (creating under [`Rdwr]/[`Trunc]) a protected file. [key] is the
    non-standard explicit-key open (§IV-E); by default the key is derived
    from the enclave sealing identity and the path, so the file can only
    be reopened by the same enclave on the same CPU.
    Runs crash recovery first (see above); a failed open leaves the
    enclave and the instance untouched — no cache memory is allocated
    and no state registered until the header is read and verified.
    @raise Sys_error if [`Rdonly] and the file does not exist.
    @raise Integrity_violation if the header fails authentication with
    no evidence of an interrupted commit, or the supplied key is
    wrong. *)

val read : file -> Bytes.t -> off:int -> len:int -> int
(** Read from the current position; returns bytes read (0 at EOF). *)

val write : file -> string -> int
(** Write at the current position, extending the file as needed; returns
    the number of bytes written (always the full length). *)

val seek : file -> offset:int -> whence:[ `Set | `Cur | `End ] -> (int, string) result
(** Like [sgx_fseek]: refuses to move beyond the end of the file (the
    quirk §IV-E works around in the WASI layer). *)

val tell : file -> int
val file_size : file -> int

val pad_to : file -> int -> unit
(** [pad_to f target] extends [f] with zero bytes up to [target] when it
    is shorter (a no-op otherwise), leaving the position at the new
    end: the §IV-E workaround for {!seek}'s refusal to pass EOF. *)

val flush : file -> unit
(** Write back dirty nodes and commit the metadata header atomically:
    after a crash anywhere inside [flush], reopening yields either the
    previous committed state or (once the new header slot is complete)
    the new one. *)

val close : file -> unit
(** Flush and drop cached nodes. Idempotent. *)

val delete : t -> string -> bool
(** Remove a protected file (data + both metadata slots + journal) from
    the backing store. Both slots are tombstoned before removal, so a
    crash mid-delete reads as "file absent", never as a stale older
    generation. *)

val exists : t -> string -> bool

val cache_stats : t -> int * int
(** (hits, misses) across all files of this instance. *)

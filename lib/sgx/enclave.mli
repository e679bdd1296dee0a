(** Simulated SGX enclave: lifecycle, boundary crossings, in-enclave
    memory with EPC accounting, reserved memory for dynamically loaded
    code (paper §IV-B), and trusted randomness. *)

type t

exception Destroyed
(** Raised when using an enclave after {!destroy} — in real SGX, writing
    enclave memory from outside terminates the enclave (threat model
    §IV-A); we model the aftermath. *)

exception Poisoned
(** Raised when entering an enclave lost to an injected asynchronous
    abort (fault sites ["enclave.ecall"] / ["enclave.ocall"], action
    [Crash]). The enclave stays poisoned — in real SGX an aborted
    enclave cannot be re-entered; the host must destroy and relaunch.
    A [Fail] injection at the same sites instead raises
    [Twine_sim.Fault.Transient] (a retryable entry failure) and leaves
    the enclave usable. *)

val create :
  Machine.t -> ?signer:string -> ?heap_bytes:int -> code:string -> unit -> t
(** Build an enclave whose identity (MRENCLAVE) is the SHA-256 of [code].
    Charges ECREATE + one EADD/EEXTEND per code and heap page, so launch
    time is proportional to enclave size — the effect behind Table IIIa's
    launch row. *)

val machine : t -> Machine.t
val id : t -> int
val measurement : t -> string
(** 32-byte MRENCLAVE. *)

val signer : t -> string
(** 32-byte MRSIGNER (hash of the signing identity). *)

val size_bytes : t -> int
(** Committed memory: code + heap + reserved pages. *)

val destroy : t -> unit

(* Boundary crossings *)

val ecall : t -> ?name:string -> (t -> 'a) -> 'a
(** Enter the enclave, run the function inside, and leave; charges two
    boundary crossings. Nested calls are allowed and charge nothing (only
    the outermost crossing pays). Counted as [sgx.ecall]. With a flight
    recorder attached, the body is a [span] Begin/End pair named [name]:
    Begin after the fault gate, End before the exit crossing, also when
    the body raises. *)

val ocall : t -> ?name:string -> (unit -> 'a) -> 'a
(** Call out of the enclave from trusted code; charges a round trip.
    Counted as [sgx.ocall] and, like {!ecall}, traced as a span named
    [name] when a flight recorder is attached.
    @raise Invalid_argument if not currently inside an [ecall]. *)

val inside : t -> bool
val transitions : t -> int
(** Count of one-way boundary crossings so far. *)

val poisoned : t -> bool
(** True once an injected abort has lost the enclave (see {!Poisoned}). *)

(* Trusted memory *)

val alloc : t -> int -> int
(** Reserve [n] bytes of enclave heap; returns the base address. Charges
    the (above-linear, §IV-C) in-enclave allocator cost and faults the
    new pages in. *)

val reserve : t -> int -> int
(** Reserve address space without committing pages; pages fault in (and
    count toward EPC pressure) on first {!touch}. *)

val touch : t -> addr:int -> len:int -> unit
(** Account an access to enclave memory: every 4 KiB page covered is
    touched in the EPC, charging a fault where non-resident. *)

val commit : t -> addr:int -> len:int -> unit
(** EAUG-style commit of pages inside a previously {!reserve}d region:
    charges the page-add cost, grows the committed size and faults the
    pages in, without moving the allocation cursor. Used to account linear
    memory grown by [memory.grow] after the region was set up. *)

val memset : t -> int -> unit
(** Charge clearing [n] bytes of enclave memory (MEE write cost) to the
    [mee.memset] account. *)

val copy_in : t -> int -> unit
(** Charge copying [n] bytes from untrusted to trusted memory to the
    [mee.copy] account. *)

val copy_out : t -> int -> unit

val load_reserved : t -> string -> int
(** Map code into reserved memory (§IV-B), returning its base address.
    Charges the copy plus page-permission management. *)

val random : t -> int -> string
(** Trusted in-enclave randomness (deterministic per enclave identity). *)

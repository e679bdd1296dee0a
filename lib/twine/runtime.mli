(** The TWINE runtime (paper §IV): a Wasm engine hosted inside an SGX
    enclave behind a single ECALL, with the SGX-tailored WASI host,
    protected-file persistence, and code confidentiality via attested
    deployment into enclave reserved memory. *)

type engine = Interpreter | Aot

type config = {
  engine : engine;
  strict_wasi : bool;
      (** disable the untrusted POSIX layer entirely (paper §IV-C) *)
  cache_nodes : int;  (** protected-FS node-cache capacity *)
  ipfs_variant : Twine_ipfs.Protected_fs.variant;
  heap_bytes : int;
}

val default_config : config
(** AoT engine, permissive WASI, stock IPFS, 48-node cache, 16 MiB heap. *)

val runtime_code : string
(** The runtime's code identity; its hash is the enclave measurement a
    provider pins during attestation. *)

type t

val create : ?config:config -> ?backing:Twine_ipfs.Backing.t -> Twine_sgx.Machine.t -> t
(** Launch a TWINE enclave on the machine. [backing] is the untrusted
    store behind the protected file system (default: in-memory). *)

val enclave : t -> Twine_sgx.Enclave.t
val machine : t -> Twine_sgx.Machine.t
val fs : t -> Twine_ipfs.Protected_fs.t

val quote : t -> data:string -> Twine_sgx.Attestation.quote

exception Deploy_error of string

(** An application provider (Figure 1): releases its confidential Wasm
    module only to an enclave whose quote proves it runs the genuine
    TWINE runtime on a registered CPU. *)
module Provider : sig
  type provider

  val create : wasm:string -> service:Twine_sgx.Attestation.service -> provider
  (** [wasm] is the binary module; the expected measurement is pinned to
      {!runtime_code}. *)

  val deliver :
    provider ->
    quote:Twine_sgx.Attestation.quote ->
    runtime_pub:string ->
    (string * string * string * string, string) result
  (** Provider-side protocol step: verify the quote and channel binding,
      then return [(provider_secret, iv, ciphertext, tag)] of the module
      under the derived channel key. Exposed for testing impostor
      scenarios; normal use goes through {!deploy_from}. *)
end

val deploy_from : t -> Provider.provider -> unit
(** Full attested deployment: quote, verification, encrypted delivery,
    in-enclave decryption, validation, loading into reserved memory.
    @raise Deploy_error if attestation or authentication fails. *)

val deploy : t -> Twine_wasm.Ast.module_ -> unit
(** Local deployment (no provider); still validated and loaded into
    reserved memory.
    @raise Twine_wasm.Validate.Invalid on an ill-typed module. *)

val install_memory_hook :
  Twine_sgx.Enclave.t -> base:int -> ?committed:int ref -> Twine_wasm.Memory.t -> unit
(** Account guest linear-memory accesses as EPC page touches (with a
    same-page filter so instrumentation cost stays negligible).
    [committed] is the number of bytes at [base] already committed in the
    enclave (default: the memory's current size); pages added by
    [memory.grow] beyond it are EAUG-committed and charged before the
    triggering access. The hook is installed on the memory's access ref
    and replaces any previous hook; {!run} removes it when the call
    returns. *)

type run_outcome = {
  exit_code : int;
  stdout : string;
  fuel : int;
      (** guest instructions executed; both engines meter identically,
          so this is engine-independent on deterministic workloads *)
}

val run :
  ?args:string list ->
  ?env:(string * string) list ->
  ?profile:Twine_obs.Profile.t ->
  ?fuel_limit:int ->
  t ->
  run_outcome
(** Execute the deployed module's WASI start routine inside one ECALL.
    With [profile], a shadow call stack is maintained at every guest
    function entry/exit and per-function instruction/cycle attribution
    is recorded into the profiler (symbols from the module's name
    section; hostcall time charged to the calling Wasm frame). The
    hooks are detached when the call returns.
    With [fuel_limit], the guest traps deterministically ("fuel
    exhausted") once it has executed that many instructions; both
    engines trap at the identical fuel value.
    @raise Deploy_error if nothing is deployed or [_start] is missing. *)

val serve :
  t ->
  ?name:string ->
  ?batch:(string * int) list ->
  (Twine_sgx.Enclave.t -> 'a) ->
  'a
(** The request-service entry point: run the thunk inside one ECALL
    (default span/account name ["twine.serve"]). The serving fleet
    ({!Twine_serve}) batches N queued requests behind a single call, so
    the whole batch pays one enclave round-trip — the transition
    amortisation the paper's §V costs motivate. Charges raised inside
    (SQL work, EPC paging, boundary copies) book normally. With
    [batch], an instant event carrying the given span-context args
    (enclave id, batch size, first/last request id) is emitted to the
    attached flight recorder just before the ECALL, anchoring the batch
    on the timeline. *)

val serve_safe :
  t ->
  ?name:string ->
  ?batch:(string * int) list ->
  (Twine_sgx.Enclave.t -> 'a) ->
  ('a, [ `Transient of string | `Lost of string ]) result
(** Like {!serve} but containing injected enclave faults as a typed
    error: [`Transient] is a recoverable entry failure or a protected-FS
    read that failed authentication (the enclave is healthy — requeue
    the batch and retry); [`Lost] is an asynchronous
    enclave abort or an entry into an already-poisoned enclave — call
    {!destroy} and relaunch a replacement. Guest traps and other
    exceptions still propagate: the serving path runs no guest code. *)

val destroy : t -> unit
(** Tear the runtime down after an enclave loss: drops the deployed
    module and guest-memory region, destroys the enclave (idempotent),
    releases every EPC page it still held and purges its
    eviction-provenance entries
    ({!Twine_sgx.Epc.release_enclave}). A replacement created with the
    same backing recovers its durable protected-file state through the
    crash-recovery path at next open. *)

type run_error =
  | Guest_trap of string
      (** the guest trapped (including fuel exhaustion); the enclave
          unwound cleanly and stays reusable *)
  | Enclave_lost of string
      (** an injected enclave abort; the enclave is poisoned — destroy
          and relaunch. Subsequent calls keep returning this error. *)

val trap_message : t -> exn -> string
(** Render a trap that escaped {!run} with the guest frames it unwound
    through, innermost first, as recorded on the run's instance. *)

val run_safe :
  ?args:string list ->
  ?env:(string * string) list ->
  ?profile:Twine_obs.Profile.t ->
  ?fuel_limit:int ->
  t ->
  (run_outcome, run_error) result
(** Like {!run} but containing guest traps and injected enclave faults
    as a typed error instead of an exception. A transient injected
    entry failure ([Twine_sim.Fault.Transient]) still propagates: it is
    the caller's retry decision. *)

(** WebAssembly linear memory: a vector of 64 KiB pages with little-endian
    loads/stores and bounds checking that traps on out-of-range access. *)

type t

val create : Types.limits -> t
val size_pages : t -> int
val size_bytes : t -> int

val max_pages : t -> int
(** Upper growth limit in 64 KiB pages (the declared maximum, or the
    addressable 65536 when none was declared). *)

val grow : t -> int -> int32
(** [grow t delta] returns the old size in pages, or [-1l] if growth would
    exceed the limit (as the [memory.grow] instruction does). *)

val load8_u : t -> int -> int32
val load8_s : t -> int -> int32
val load16_u : t -> int -> int32
val load16_s : t -> int -> int32
val load32 : t -> int -> int32
val load64 : t -> int -> int64
val store8 : t -> int -> int32 -> unit
val store16 : t -> int -> int32 -> unit
val store32 : t -> int -> int32 -> unit
val store64 : t -> int -> int64 -> unit

val load32_to : t -> int -> Bytes.t -> int -> unit
val load64_to : t -> int -> Bytes.t -> int -> unit
val store32_from : t -> int -> Bytes.t -> int -> unit
val store64_from : t -> int -> Bytes.t -> int -> unit
(** Full-width transfers between memory and a [Bytes] offset, with the
    same bounds check and access hook as the loads and stores above. *)

val load_bytes : t -> int -> int -> string
val store_bytes : t -> int -> string -> unit

val load_cstring : t -> int -> string
(** NUL-terminated string at the given address. The scanned range
    (including the terminator) is bounds-checked and reported to the
    access hook, so C-string reads count toward EPC pressure. *)

val on_access : t -> (addr:int -> len:int -> unit) option ref
(** Hook invoked before each access — the TWINE runtime uses it to charge
    EPC page touches for in-enclave Wasm memory. *)

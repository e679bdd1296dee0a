(** Unauthenticated block-cipher modes and shared helpers. *)

val ctr_transform :
  Aes.key -> counter:Bytes.t -> Bytes.t -> off:int -> len:int -> unit
(** [ctr_transform k ~counter buf ~off ~len] encrypts (or, identically,
    decrypts) [len] bytes of [buf] in place with AES-CTR. [counter] is the
    initial 16-byte counter block and is advanced (big-endian increment of
    the last 32 bits) as blocks are consumed; it is mutated. *)

val xor_bytes : src:Bytes.t -> src_off:int -> Bytes.t -> dst_off:int -> len:int -> unit
(** [xor_bytes ~src ~src_off dst ~dst_off ~len] XORs [len] bytes of [src]
    at [src_off] into [dst] at [dst_off], 8 bytes at a time. *)

val xor_into : src:string -> Bytes.t -> off:int -> len:int -> unit
(** XOR [len] bytes of [src] into [buf] starting at [off]; {!xor_bytes}
    from offset 0 of a string. *)

val ct_equal : string -> string -> bool
(** Constant-time equality of equal-length strings (false on length
    mismatch). Used for MAC verification. *)

val inc32 : Bytes.t -> unit
(** Big-endian increment of the last 4 bytes of a 16-byte block. *)

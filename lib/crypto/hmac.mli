(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869). *)

type key
(** A keyed HMAC state: the SHA-256 states after the key xor ipad and
    key xor opad blocks, plus scratch for one MAC at a time. A MAC of at
    most 55 bytes costs two compressions, and computing one allocates
    nothing. *)

val key : string -> key
(** Keys longer than 64 bytes are hashed first, as RFC 2104 says. *)

val set_key : key -> Bytes.t -> unit
(** Re-key in place from the whole of a [Bytes]; allocates nothing. *)

val mac_into : key -> Bytes.t -> off:int -> len:int -> Bytes.t -> int -> unit
(** [mac_into k src ~off ~len dst dst_off] writes the 32-byte MAC of
    [src.[off .. off+len-1]] to [dst.[dst_off .. dst_off+31]]. The message
    is read in full before the MAC is written, so the two may overlap. *)

val hmac_sha256 : key:string -> string -> string
(** 32-byte MAC. *)

val hkdf_extract : ?salt:string -> string -> string
(** [hkdf_extract ?salt ikm] returns a 32-byte pseudorandom key. *)

val hkdf_expand : prk:string -> info:string -> length:int -> string
(** Expand a PRK into [length] bytes (max 255*32). *)

val derive : key:string -> info:string -> length:int -> string
(** One-shot extract-then-expand; used for SGX key derivation. *)

(** AES block cipher (FIPS 197), 128/192/256-bit keys, forward direction.

    This is the trusted-library building block used by the Intel Protected
    File System simulation ({!Twine_ipfs}) and by SGX sealing. Only the raw
    16-byte block transform is exposed here; authenticated modes live in
    {!Gcm} and {!Ccm}, and counter mode in {!Modes}. All three use only the
    forward cipher, so there is no inverse. *)

type key
(** An expanded key schedule. *)

val expand : string -> key
(** [expand k] expands a raw key of 16, 24 or 32 bytes.
    @raise Invalid_argument on any other length. *)

val key_bits : key -> int
(** Key size in bits (128, 192 or 256). *)

val encrypt_block : key -> Bytes.t -> src_off:int -> Bytes.t -> dst_off:int -> unit
(** [encrypt_block k src ~src_off dst ~dst_off] encrypts the 16-byte block
    at [src_off] into [dst] at [dst_off]. [src] and [dst] may alias. It
    allocates nothing. *)

val encrypt_block_str : key -> string -> string
(** Convenience: encrypt one 16-byte block given and returned as strings. *)

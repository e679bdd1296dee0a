let block_size = 64

(* A keyed state: SHA-256 after the block key xor ipad ([inner]) and
   after key xor opad ([outer]). A MAC copies them into [ctx] instead of
   hashing the pad blocks again. [block] is scratch for the pad blocks, a
   hashed long key and the inner digest. *)
type key = {
  inner : Sha256.ctx;
  outer : Sha256.ctx;
  ctx : Sha256.ctx;
  block : Bytes.t;
}

(* [block] := the first [len] bytes of [key], zero-padded to 64, xor
   0x36; then the same with 0x5c. [key] may be [block] itself. *)
let load_pads t key len =
  for i = 0 to block_size - 1 do
    let b = if i < len then Char.code (Bytes.get key i) else 0 in
    Bytes.set t.block i (Char.unsafe_chr (b lxor 0x36))
  done;
  Sha256.reset t.inner;
  Sha256.update_bytes t.inner t.block ~off:0 ~len:block_size;
  for i = 0 to block_size - 1 do
    Bytes.set t.block i (Char.unsafe_chr (Char.code (Bytes.get t.block i) lxor (0x36 lxor 0x5c)))
  done;
  Sha256.reset t.outer;
  Sha256.update_bytes t.outer t.block ~off:0 ~len:block_size

let set_key t key =
  let len = Bytes.length key in
  if len > block_size then begin
    Sha256.reset t.ctx;
    Sha256.update_bytes t.ctx key ~off:0 ~len;
    Sha256.finalize_into t.ctx t.block 0;
    load_pads t t.block 32
  end
  else load_pads t key len

let key raw =
  let t =
    { inner = Sha256.init (); outer = Sha256.init (); ctx = Sha256.init ();
      block = Bytes.create block_size }
  in
  set_key t (Bytes.unsafe_of_string raw);
  t

let mac_into t src ~off ~len dst dst_off =
  Sha256.copy_into ~src:t.inner t.ctx;
  Sha256.update_bytes t.ctx src ~off ~len;
  Sha256.finalize_into t.ctx t.block 0;
  Sha256.copy_into ~src:t.outer t.ctx;
  Sha256.update_bytes t.ctx t.block ~off:0 ~len:32;
  Sha256.finalize_into t.ctx dst dst_off

let hmac_sha256 ~key:raw msg =
  let out = Bytes.create 32 in
  mac_into (key raw) (Bytes.unsafe_of_string msg) ~off:0 ~len:(String.length msg) out 0;
  Bytes.unsafe_to_string out

let hkdf_extract ?(salt = "") ikm =
  let salt = if salt = "" then String.make 32 '\000' else salt in
  hmac_sha256 ~key:salt ikm

let hkdf_expand ~prk ~info ~length =
  if length < 0 || length > 255 * 32 then invalid_arg "Hmac.hkdf_expand: length";
  let buf = Buffer.create length in
  let rec go t i =
    if Buffer.length buf >= length then ()
    else begin
      let t = hmac_sha256 ~key:prk (t ^ info ^ String.make 1 (Char.chr i)) in
      Buffer.add_string buf t;
      go t (i + 1)
    end
  in
  go "" 1;
  String.sub (Buffer.contents buf) 0 length

let derive ~key ~info ~length = hkdf_expand ~prk:(hkdf_extract key) ~info ~length

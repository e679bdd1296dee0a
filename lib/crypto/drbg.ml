(* HMAC_DRBG state, updated in place. [v] holds V in bytes 0..31 and the
   0x00/0x01 separator of the update step in byte 32, so "V || sep" is a
   prefix of [v]. [mac] is keyed with K and re-keyed after every K
   update, so each HMAC after that costs two compressions. *)
type t = { k : Bytes.t; v : Bytes.t; mac : Hmac.key }

(* V = HMAC(K, V) *)
let next_v t = Hmac.mac_into t.mac t.v ~off:0 ~len:32 t.v 0

(* K = HMAC(K, V || sep || provided); V = HMAC(K, V) *)
let step t sep provided =
  Bytes.set t.v 32 sep;
  let msg = if provided = "" then t.v else Bytes.cat t.v (Bytes.unsafe_of_string provided) in
  Hmac.mac_into t.mac msg ~off:0 ~len:(Bytes.length msg) t.k 0;
  Hmac.set_key t.mac t.k;
  next_v t

let update t provided =
  step t '\x00' provided;
  if provided <> "" then step t '\x01' provided

let create ?(personalization = "") ~seed () =
  let k = String.make 32 '\000' in
  let t = { k = Bytes.of_string k; v = Bytes.make 33 '\001'; mac = Hmac.key k } in
  update t (seed ^ personalization);
  t

let reseed t entropy = update t entropy

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate";
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    next_v t;
    let take = min 32 (n - !pos) in
    Bytes.blit t.v 0 out !pos take;
    pos := !pos + take
  done;
  update t "";
  Bytes.unsafe_to_string out

(* [generate t 8] as a big-endian integer, read from V in place. *)
let uint64 t =
  next_v t;
  let x = Bytes.get_int64_be t.v 0 in
  update t "";
  x

let int_below t bound =
  if bound <= 0 then invalid_arg "Drbg.int_below";
  (* Rejection sampling over 62-bit values to avoid modulo bias. *)
  let limit = 0x3fffffffffffffff - (0x3fffffffffffffff mod bound) in
  let v = ref limit in
  while !v >= limit do
    next_v t;
    v := Int64.to_int (Bytes.get_int64_be t.v 0) land 0x3fffffffffffffff;
    update t ""
  done;
  !v mod bound

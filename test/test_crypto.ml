(* Crypto substrate tests: published test vectors (FIPS 197, FIPS 180-4,
   RFC 4231, NIST GCM, RFC 3610 CCM), byte-wise reference oracles for AES,
   SHA-256 and HMAC_DRBG, plus property-based round-trips. *)

open Twine_crypto

let hex = Hexcodec.decode

let check_hex msg expected actual =
  Alcotest.(check string) msg expected (Hexcodec.encode actual)

(* --- AES block cipher --- *)

(* Reference oracle: the FIPS 197 forward cipher written byte by byte
   (SubBytes, ShiftRows, MixColumns with xtime, AddRoundKey) on a
   column-major 16-byte state, with its own key expansion. The library's
   table-driven [Aes.encrypt_block] must agree with it on every input. *)
module Oracle = struct
  (* The S-box from its definition: multiplicative inverse in GF(2^8)
     followed by the affine map. *)
  let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1b) land 0xff else (b lsl 1) land 0xff

  let rec gf_mul a b =
    if b = 0 then 0
    else (if b land 1 <> 0 then a else 0) lxor gf_mul (xtime a) (b lsr 1)

  let sbox =
    Array.init 256 (fun x ->
        let inv = if x = 0 then 0 else List.find (fun y -> gf_mul x y = 1) (List.init 255 succ) in
        let rotl v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
        inv lxor rotl inv 1 lxor rotl inv 2 lxor rotl inv 3 lxor rotl inv 4 lxor 0x63)

  (* Round keys as 16-byte arrays, one per round. *)
  let expand raw =
    let nk = String.length raw / 4 in
    let rounds = nk + 6 in
    let w = Array.init (4 * (rounds + 1)) (fun _ -> Array.make 4 0) in
    for i = 0 to nk - 1 do
      w.(i) <- Array.init 4 (fun r -> Char.code raw.[(4 * i) + r])
    done;
    let rcon = ref 1 in
    for i = nk to (4 * (rounds + 1)) - 1 do
      let t = Array.copy w.(i - 1) in
      let t =
        if i mod nk = 0 then begin
          let t = Array.map (fun b -> sbox.(b)) [| t.(1); t.(2); t.(3); t.(0) |] in
          t.(0) <- t.(0) lxor !rcon;
          rcon := xtime !rcon;
          t
        end
        else if nk > 6 && i mod nk = 4 then Array.map (fun b -> sbox.(b)) t
        else t
      in
      w.(i) <- Array.mapi (fun r b -> b lxor w.(i - nk).(r)) t
    done;
    Array.init (rounds + 1) (fun round ->
        Array.init 16 (fun i -> w.((4 * round) + (i / 4)).(i mod 4)))

  let add_round_key st rk = Array.iteri (fun i b -> st.(i) <- st.(i) lxor b) rk
  let sub_bytes st = Array.iteri (fun i b -> st.(i) <- sbox.(b)) st

  (* state.(4*c + r) is row r, column c; row r rotates left by r. *)
  let shift_rows st =
    let old = Array.copy st in
    for c = 0 to 3 do
      for r = 1 to 3 do st.((4 * c) + r) <- old.((4 * ((c + r) mod 4)) + r) done
    done

  let mix_columns st =
    for c = 0 to 3 do
      let a = Array.sub st (4 * c) 4 in
      for r = 0 to 3 do
        st.((4 * c) + r) <-
          xtime a.(r) lxor (xtime a.((r + 1) mod 4) lxor a.((r + 1) mod 4))
          lxor a.((r + 2) mod 4) lxor a.((r + 3) mod 4)
      done
    done

  let encrypt raw block =
    let rks = expand raw in
    let rounds = Array.length rks - 1 in
    let st = Array.init 16 (fun i -> Char.code block.[i]) in
    add_round_key st rks.(0);
    for round = 1 to rounds - 1 do
      sub_bytes st; shift_rows st; mix_columns st; add_round_key st rks.(round)
    done;
    sub_bytes st; shift_rows st; add_round_key st rks.(rounds);
    String.init 16 (fun i -> Char.chr st.(i))
end

let fips_pt = "00112233445566778899aabbccddeeff"

let fips197 raw_hex expected () =
  let k = Aes.expand (hex raw_hex) in
  Alcotest.(check int) "bits" (4 * String.length raw_hex) (Aes.key_bits k);
  check_hex "encrypt" expected (Aes.encrypt_block_str k (hex fips_pt));
  check_hex "oracle" expected (Oracle.encrypt (hex raw_hex) (hex fips_pt))

let test_aes128_fips197 =
  fips197 "000102030405060708090a0b0c0d0e0f" "69c4e0d86a7b0430d8cdb78070b4c55a"

let test_aes192_fips197 =
  fips197 "000102030405060708090a0b0c0d0e0f1011121314151617"
    "dda97ca4864cdfe06eaf70a0ec0d7191"

let test_aes256_fips197 =
  fips197 "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    "8ea2b7ca516745bfeafc49904b496089"

let test_aes_bad_key () =
  Alcotest.check_raises "bad length" (Invalid_argument "Aes.expand: bad key length 5")
    (fun () -> ignore (Aes.expand "12345"))

(* [encrypt_block] against the oracle for every key size, with source and
   destination either separate or one aliased buffer, at arbitrary
   (possibly overlapping) offsets. *)
let prop_aes_oracle =
  QCheck.Test.make ~name:"encrypt_block matches fips197 oracle" ~count:300
    QCheck.(
      quad
        (make Gen.(oneofl [ 16; 24; 32 ] >>= fun n -> string_size (return n)))
        (string_of_size (Gen.return 16))
        (pair (int_bound 20) (int_bound 20))
        bool)
    (fun (raw, block, (src_off, dst_off), aliased) ->
      let k = Aes.expand raw in
      let src = Bytes.make 40 '\x5a' in
      Bytes.blit_string block 0 src src_off 16;
      let dst = if aliased then src else Bytes.make 40 '\xa5' in
      Aes.encrypt_block k src ~src_off dst ~dst_off;
      Bytes.sub_string dst dst_off 16 = Oracle.encrypt raw block)

let test_aes_no_alloc () =
  let k = Aes.expand (String.make 32 'k') in
  let b = Bytes.make 16 'b' in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do Aes.encrypt_block k b ~src_off:0 b ~dst_off:0 done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 1000 blocks" words) true (words < 16.)

(* --- SHA-256 --- *)

(* Reference oracle: SHA-256 written plainly. Each block gets a fresh
   64-word schedule, every rotation is masked on its own, and the padding
   is built as a separate buffer. The library's [Sha256] must agree with
   it on every input. The constants come from their definition (FIPS 180-4
   4.2.2 and 5.3.3): the first 32 bits of the fractional parts of the cube
   roots of the first 64 primes, and of the square roots of the first 8. *)
module Sha_oracle = struct
  let primes n =
    let rec go acc p =
      if List.length acc = n then List.rev acc
      else if List.for_all (fun q -> p mod q <> 0) acc then go (p :: acc) (p + 1)
      else go acc (p + 1)
    in
    go [] 2

  let frac32 x = int_of_float (Float.ldexp (x -. Float.of_int (truncate x)) 32)
  let k = Array.of_list (List.map (fun p -> frac32 (Float.cbrt (float p))) (primes 64))
  let iv = Array.of_list (List.map (fun p -> frac32 (sqrt (float p))) (primes 8))
  let mask = 0xffffffff
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let compress h block off =
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      w.(i) <-
        (Char.code (Bytes.get block (off + (4 * i))) lsl 24)
        lor (Char.code (Bytes.get block (off + (4 * i) + 1)) lsl 16)
        lor (Char.code (Bytes.get block (off + (4 * i) + 2)) lsl 8)
        lor Char.code (Bytes.get block (off + (4 * i) + 3))
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
      let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3)
    and e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask in
      hh := !g; g := !f; f := !e; e := (!d + t1) land mask;
      d := !c; c := !b; b := !a; a := (t1 + t2) land mask
    done;
    h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
    h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
    h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
    h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

  let digest s =
    let total = String.length s in
    let pad_len =
      let rem = (total + 1) mod 64 in
      if rem <= 56 then 56 - rem + 1 else 64 - rem + 56 + 1
    in
    let pad = Bytes.make (pad_len + 8) '\000' in
    Bytes.set pad 0 '\x80';
    for i = 0 to 7 do
      Bytes.set pad (pad_len + i) (Char.chr (((total * 8) lsr (8 * (7 - i))) land 0xff))
    done;
    let msg = Bytes.cat (Bytes.of_string s) pad in
    let h = Array.copy iv in
    for blk = 0 to (Bytes.length msg / 64) - 1 do compress h msg (64 * blk) done;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))
end

let test_sha256_vectors () =
  List.iter
    (fun (name, expected, msg) ->
      check_hex name expected (Sha256.digest msg);
      check_hex (name ^ " (oracle)") expected (Sha_oracle.digest msg))
    [ ("empty", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad", "abc");
      ( "448-bit msg", "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq" );
      ( "million a", "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        String.make 1_000_000 'a' ) ]

let test_sha256_incremental () =
  let whole = Sha256.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  Sha256.update ctx "the quick brown fox";
  Sha256.update ctx " jumps over";
  Sha256.update ctx " the lazy dog";
  Alcotest.(check string) "incremental = one-shot" (Hexcodec.encode whole)
    (Hexcodec.encode (Sha256.finalize ctx))

(* Split at any point; [copy_into] forks the hash at the split into a
   context that held other bytes, and [reset] makes a finished context
   new again. *)
let prop_sha256_incremental_split =
  QCheck.Test.make ~name:"sha256 split-at-any-point" ~count:200
    QCheck.(triple (string_of_size Gen.(int_range 0 300)) small_nat string)
    (fun (s, cut, junk) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let rest = String.sub s cut (String.length s - cut) in
      let ctx = Sha256.init () and fork = Sha256.init () in
      Sha256.update ctx (String.sub s 0 cut);
      Sha256.update fork junk;
      Sha256.copy_into ~src:ctx fork;
      Sha256.update ctx rest;
      Sha256.update fork rest;
      let whole = Sha256.finalize ctx in
      Sha256.reset ctx;
      Sha256.update ctx s;
      whole = Sha256.digest s && Sha256.finalize fork = whole && Sha256.finalize ctx = whole)

(* Lengths 0-300, with every padding edge (55/56 bytes: the length fits
   in the last block or spills; 63/64, 119/120: one block more) drawn
   often. The digest lands at an offset inside a larger buffer. *)
let prop_sha256_oracle =
  QCheck.Test.make ~name:"sha256 matches oracle" ~count:300
    QCheck.(
      pair
        (make Gen.(oneof [ int_range 0 300; oneofl [ 55; 56; 63; 64; 119; 120 ] ] >>= fun n ->
                   string_size (return n)))
        (int_bound 20))
    (fun (s, off) ->
      let out = Bytes.make (off + 35) '#' in
      let ctx = Sha256.init () in
      Sha256.update ctx s;
      Sha256.finalize_into ctx out off;
      Sha256.digest s = Sha_oracle.digest s
      && Bytes.sub_string out off 32 = Sha_oracle.digest s
      && Bytes.sub_string out 0 off = String.make off '#'
      && Bytes.sub_string out (off + 32) 3 = "###")

let test_sha256_no_alloc () =
  let ctx = Sha256.init () and b = Bytes.make 64 'b' in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do Sha256.update_bytes ctx b ~off:0 ~len:64 done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 1000 blocks" words) true (words < 16.)

(* HMAC (RFC 2104) and HMAC_DRBG (SP 800-90A 10.1.2) over [Sha_oracle],
   on strings, as the standards write them: every HMAC hashes both pad
   blocks, and K and V are fresh strings at every step. *)
module Drbg_oracle = struct
  let hmac ~key msg =
    let key = if String.length key > 64 then Sha_oracle.digest key else key in
    let pad fill =
      String.init 64 (fun i ->
          Char.chr ((if i < String.length key then Char.code key.[i] else 0) lxor fill))
    in
    Sha_oracle.digest (pad 0x5c ^ Sha_oracle.digest (pad 0x36 ^ msg))

  type t = { mutable k : string; mutable v : string }

  let update t provided =
    t.k <- hmac ~key:t.k (t.v ^ "\x00" ^ provided);
    t.v <- hmac ~key:t.k t.v;
    if provided <> "" then begin
      t.k <- hmac ~key:t.k (t.v ^ "\x01" ^ provided);
      t.v <- hmac ~key:t.k t.v
    end

  let create ?(personalization = "") ~seed () =
    let t = { k = String.make 32 '\000'; v = String.make 32 '\001' } in
    update t (seed ^ personalization);
    t

  let reseed t entropy = update t entropy

  let generate t n =
    let buf = Buffer.create n in
    while Buffer.length buf < n do
      t.v <- hmac ~key:t.k t.v;
      Buffer.add_string buf t.v
    done;
    update t "";
    String.sub (Buffer.contents buf) 0 n

  let uint64 t =
    let s = generate t 8 in
    let v = ref 0L in
    String.iter (fun c -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c))) s;
    !v

  let int_below t bound =
    let rec go () =
      let v = Int64.to_int (Int64.logand (uint64 t) 0x3fffffffffffffffL) in
      let limit = 0x3fffffffffffffff - (0x3fffffffffffffff mod bound) in
      if v >= limit then go () else v mod bound
    in
    go ()
end

(* --- HMAC / HKDF --- *)

let test_hmac_rfc4231 () =
  check_hex "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.hmac_sha256 ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hmac_sha256 ~key:"Jefe" "what do ya want for nothing?");
  check_hex "case 3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.hmac_sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  check_hex "case 4" "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Hmac.hmac_sha256 ~key:(hex "0102030405060708090a0b0c0d0e0f10111213141516171819")
       (String.make 50 '\xcd'));
  (* cases 6 and 7: a 131-byte key, hashed before use *)
  check_hex "case 6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.hmac_sha256 ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First");
  check_hex "case 7" "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Hmac.hmac_sha256 ~key:(String.make 131 '\xaa')
       "This is a test using a larger than block-size key and a larger than block-size \
        data. The key needs to be hashed before being used by the HMAC algorithm.")

(* A keyed state re-keyed in place, from keys shorter and longer than a
   block, agrees with the string-built RFC 2104 oracle, also when the MAC
   overwrites its own message. *)
let prop_hmac_oracle =
  QCheck.Test.make ~name:"hmac keyed state matches oracle" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 0 150)) (string_of_size Gen.(int_range 32 200)))
    (fun (raw, msg) ->
      let expected = Drbg_oracle.hmac ~key:raw msg in
      let k = Hmac.key "stale key" in
      Hmac.set_key k (Bytes.of_string raw);
      let buf = Bytes.of_string msg in
      Hmac.mac_into k buf ~off:0 ~len:(Bytes.length buf) buf 0;
      Hmac.hmac_sha256 ~key:raw msg = expected && Bytes.sub_string buf 0 32 = expected)

let test_hkdf_rfc5869 () =
  (* RFC 5869 test case 1 *)
  let ikm = hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let salt = hex "000102030405060708090a0b0c" in
  let prk = Hmac.hkdf_extract ~salt ikm in
  check_hex "prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  let okm = Hmac.hkdf_expand ~prk ~info:(hex "f0f1f2f3f4f5f6f7f8f9") ~length:42 in
  check_hex "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    okm

let test_derive_lengths () =
  List.iter
    (fun n ->
      Alcotest.(check int) (Printf.sprintf "derive %d" n) n
        (String.length (Hmac.derive ~key:"k" ~info:"i" ~length:n)))
    [ 0; 1; 16; 31; 32; 33; 64; 100 ]

(* --- GCM --- *)

let gcm_key_128 = "feffe9928665731c6d6a8f9467308308"

let test_gcm_nist_case3 () =
  let k = Gcm.of_raw (hex gcm_key_128) in
  let iv = hex "cafebabefacedbaddecaf888" in
  let pt =
    hex
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
  in
  let ct, tag = Gcm.encrypt k ~iv pt in
  check_hex "ciphertext"
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
    ct;
  check_hex "tag" "4d5c2af327cd64a62cf35abd2ba6fab4" tag;
  match Gcm.decrypt k ~iv ~tag ct with
  | Some pt' -> Alcotest.(check string) "roundtrip" (Hexcodec.encode pt) (Hexcodec.encode pt')
  | None -> Alcotest.fail "tag rejected"

let test_gcm_nist_case4_aad () =
  let k = Gcm.of_raw (hex gcm_key_128) in
  let iv = hex "cafebabefacedbaddecaf888" in
  let aad = hex "feedfacedeadbeeffeedfacedeadbeefabaddad2" in
  let pt =
    hex
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
  in
  let ct, tag = Gcm.encrypt k ~iv ~aad pt in
  check_hex "ciphertext"
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    ct;
  check_hex "tag" "5bc94fbc3221a5db94fae95ae7121a47" tag

(* The 192- and 256-bit key paths: GCM-spec test cases 9 and 13-16. *)
let gcm_pt64 =
  "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"

let gcm_case ~key ~iv ?(aad = "") ~pt ?ct ~tag () =
  let k = Gcm.of_raw (hex key) in
  let iv = hex iv and aad = hex aad in
  let c, t = Gcm.encrypt k ~iv ~aad (hex pt) in
  Option.iter (fun ct -> check_hex "ciphertext" ct c) ct;
  check_hex "tag" tag t;
  Alcotest.(check (option string)) "decrypts" (Some (hex pt)) (Gcm.decrypt k ~iv ~aad ~tag:t c)

let gcm_key_192 = gcm_key_128 ^ "feffe9928665731c"
let gcm_key_256 = gcm_key_128 ^ gcm_key_128
let zero_iv = String.make 24 '0'

let test_gcm_case9 () =
  gcm_case ~key:gcm_key_192 ~iv:"cafebabefacedbaddecaf888" ~pt:gcm_pt64
    ~tag:"9924a7c8587336bfb118024db8674a14" ()

let test_gcm_case13 () =
  gcm_case ~key:(String.make 64 '0') ~iv:zero_iv ~pt:"" ~ct:""
    ~tag:"530f8afbc74536b9a963b4f1c4cb738b" ()

let test_gcm_case14 () =
  gcm_case ~key:(String.make 64 '0') ~iv:zero_iv ~pt:(String.make 32 '0')
    ~ct:"cea7403d4d606b6e074ec5d3baf39d18" ~tag:"d0d1c8a799996bf0265b98b5d48ab919" ()

let test_gcm_case15 () =
  gcm_case ~key:gcm_key_256 ~iv:"cafebabefacedbaddecaf888" ~pt:gcm_pt64
    ~ct:
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
    ~tag:"b094dac5d93471bdec1a502270e3cc6c" ()

let test_gcm_case16 () =
  gcm_case ~key:gcm_key_256 ~iv:"cafebabefacedbaddecaf888"
    ~aad:"feedfacedeadbeeffeedfacedeadbeefabaddad2"
    ~pt:(String.sub gcm_pt64 0 120)
    ~ct:
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
    ~tag:"76fc6ece0f4e1768cddf8853bb2d551b" ()

let test_gcm_bad_iv () =
  let k = Gcm.of_raw (hex gcm_key_128) in
  Alcotest.check_raises "11-byte IV" (Invalid_argument "Gcm: IV must be 12 bytes")
    (fun () -> ignore (Gcm.encrypt k ~iv:(String.make 11 'i') "x"))

let test_gcm_empty () =
  (* NIST case 1: empty plaintext, zero key/IV *)
  let k = Gcm.of_raw (String.make 16 '\000') in
  let ct, tag = Gcm.encrypt k ~iv:(String.make 12 '\000') "" in
  Alcotest.(check string) "ct empty" "" ct;
  check_hex "tag" "58e2fccefa7e3061367f1d57a4e7455a" tag

let test_gcm_tamper () =
  let k = Gcm.of_raw (hex gcm_key_128) in
  let iv = String.make 12 '\x42' in
  let ct, tag = Gcm.encrypt k ~iv "attack at dawn!!" in
  let bad = Bytes.of_string ct in
  Bytes.set bad 3 (Char.chr (Char.code (Bytes.get bad 3) lxor 1));
  Alcotest.(check bool) "tampered ct rejected" true
    (Gcm.decrypt k ~iv ~tag (Bytes.to_string bad) = None);
  let bad_tag = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag in
  Alcotest.(check bool) "tampered tag rejected" true
    (Gcm.decrypt k ~iv ~tag:bad_tag ct = None);
  Alcotest.(check bool) "wrong aad rejected" true
    (Gcm.decrypt k ~iv ~aad:"x" ~tag ct = None)

let prop_gcm_roundtrip =
  QCheck.Test.make ~name:"gcm roundtrip any size" ~count:100
    QCheck.(triple (string_of_size (Gen.return 16)) (string_of_size Gen.(int_range 0 200)) string)
    (fun (key, pt, aad) ->
      let k = Gcm.of_raw key in
      let iv = String.sub (Sha256.digest key) 0 12 in
      let ct, tag = Gcm.encrypt k ~iv ~aad pt in
      Gcm.decrypt k ~iv ~aad ~tag ct = Some pt)

(* --- CCM --- *)

let test_ccm_rfc3610_1 () =
  let k = Aes.expand (hex "c0c1c2c3c4c5c6c7c8c9cacbcccdcecf") in
  let nonce = hex "00000003020100a0a1a2a3a4a5" in
  let aad = hex "0001020304050607" in
  let pt = hex "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e" in
  let ct, tag = Ccm.encrypt k ~nonce ~aad ~tag_len:8 pt in
  check_hex "ciphertext" "588c979a61c663d2f066d0c2c0f989806d5f6b61dac384" ct;
  check_hex "tag" "17e8d12cfdf926e0" tag;
  match Ccm.decrypt k ~nonce ~aad ~tag ct with
  | Some pt' -> check_hex "roundtrip" (Hexcodec.encode pt) pt'
  | None -> Alcotest.fail "tag rejected"

let test_ccm_tamper () =
  let k = Aes.expand (String.make 16 'k') in
  let nonce = String.make 12 'n' in
  let ct, tag = Ccm.encrypt k ~nonce "some protected file node" in
  let bad = Bytes.of_string ct in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 0x80));
  Alcotest.(check bool) "tampered rejected" true
    (Ccm.decrypt k ~nonce ~tag (Bytes.to_string bad) = None)

let test_ccm_bad_nonce () =
  let k = Aes.expand (String.make 16 'k') in
  let bad = Invalid_argument "Ccm: nonce must be 7..13 bytes" in
  List.iter
    (fun n ->
      let nonce = String.make n 'n' in
      Alcotest.check_raises "encrypt" bad (fun () -> ignore (Ccm.encrypt k ~nonce "node"));
      Alcotest.check_raises "decrypt" bad (fun () ->
          ignore (Ccm.decrypt k ~nonce ~tag:(String.make 16 't') "node")))
    [ 6; 14; 15 ]

let prop_ccm_roundtrip =
  QCheck.Test.make ~name:"ccm roundtrip any size" ~count:100
    QCheck.(pair (string_of_size (Gen.return 16)) (string_of_size Gen.(int_range 0 200)))
    (fun (key, pt) ->
      let k = Aes.expand key in
      let nonce = String.sub (Sha256.digest key) 0 13 in
      let ct, tag = Ccm.encrypt k ~nonce pt in
      Ccm.decrypt k ~nonce ~tag ct = Some pt)

(* --- Modes helpers --- *)

let test_ctr_involution () =
  let key = Aes.expand (String.make 16 'x') in
  let data = Bytes.of_string "counter mode is an involution when reapplied" in
  let mk () = Bytes.of_string (String.make 16 '\000') in
  Modes.ctr_transform key ~counter:(mk ()) data ~off:0 ~len:(Bytes.length data);
  Modes.ctr_transform key ~counter:(mk ()) data ~off:0 ~len:(Bytes.length data);
  Alcotest.(check string) "double ctr = id"
    "counter mode is an involution when reapplied" (Bytes.to_string data)

(* CTR against its definition: block i of the keystream is E(K, counter
   advanced i times by inc32), for counters about to wrap and lengths that
   are not a multiple of 16. Returns the output and the advanced counter. *)
let ctr_reference key ~counter data =
  let ctr = Bytes.copy counter and ks = Bytes.create 16 in
  let out = Bytes.of_string data in
  Bytes.iteri
    (fun i c ->
      if i mod 16 = 0 then begin
        Aes.encrypt_block key ctr ~src_off:0 ks ~dst_off:0;
        Modes.inc32 ctr
      end;
      Bytes.set out i (Char.chr (Char.code c lxor Char.code (Bytes.get ks (i mod 16)))))
    out;
  (Bytes.to_string out, ctr)

let prop_ctr_blockwise =
  QCheck.Test.make ~name:"ctr_transform matches block-by-block" ~count:200
    QCheck.(
      quad (string_of_size (Gen.return 16)) (string_of_size (Gen.return 12))
        (make Gen.(oneof [ oneofl [ 0xffffffff; 0xfffffffe; 0xfffffff0 ]; int_bound 0x3fffffff ]))
        (pair (string_of_size Gen.(int_range 0 100)) (int_bound 7)))
    (fun (raw, prefix, low, (data, off)) ->
      let key = Aes.expand raw in
      let counter = Bytes.create 16 in
      Bytes.blit_string prefix 0 counter 0 12;
      Bytes.set_int32_be counter 12 (Int32.of_int low);
      let expected, advanced = ctr_reference key ~counter data in
      let len = String.length data in
      let buf = Bytes.make (off + len + 3) '#' in
      Bytes.blit_string data 0 buf off len;
      Modes.ctr_transform key ~counter buf ~off ~len;
      Bytes.sub_string buf off len = expected
      && Bytes.sub_string buf 0 off = String.make off '#'
      && Bytes.sub_string buf (off + len) 3 = "###"
      && Bytes.equal counter advanced)

let test_inc32_carry () =
  let b = Bytes.of_string (hex "000000000000000000000000ffffffff") in
  Modes.inc32 b;
  check_hex "wraps to zero" "00000000000000000000000000000000" (Bytes.to_string b);
  let b = Bytes.of_string (hex "0102030405060708090a0b0c00ff00ff") in
  Modes.inc32 b;
  check_hex "prefix untouched" "0102030405060708090a0b0c00ff0100" (Bytes.to_string b)

let test_ct_equal () =
  Alcotest.(check bool) "equal" true (Modes.ct_equal "abcd" "abcd");
  Alcotest.(check bool) "diff" false (Modes.ct_equal "abcd" "abce");
  Alcotest.(check bool) "len" false (Modes.ct_equal "abc" "abcd")

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed" () in
  let b = Drbg.create ~seed:"seed" () in
  Alcotest.(check string) "same stream" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"other" () in
  Alcotest.(check bool) "different seed differs" true
    (Drbg.generate (Drbg.create ~seed:"seed" ()) 32 <> Drbg.generate c 32)

let test_drbg_personalization () =
  let a = Drbg.create ~personalization:"p1" ~seed:"s" () in
  let b = Drbg.create ~personalization:"p2" ~seed:"s" () in
  Alcotest.(check bool) "personalization separates" true
    (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_reseed () =
  let a = Drbg.create ~seed:"s" () in
  let b = Drbg.create ~seed:"s" () in
  ignore (Drbg.generate a 16);
  ignore (Drbg.generate b 16);
  Drbg.reseed a "fresh entropy";
  Alcotest.(check bool) "reseed diverges" true (Drbg.generate a 32 <> Drbg.generate b 32)

(* The stream at a fixed seed, pinned: a change to it changes every
   seeded workload and its gated virtual-clock results. *)
let test_drbg_pinned () =
  let d = Drbg.create ~seed:"seed" () in
  check_hex "generate 64"
    "945418b8333283ae441104ff0af8ab77c755914dbcd4971f9db434098d72cc5fbcb6778fbaa207c9ede8824d282ef085d263945bd4908919c9eeab1c06ab119d"
    (Drbg.generate d 64);
  Alcotest.(check int64) "next uint64" 0x631af5047a863460L (Drbg.uint64 d)

type drbg_op = Generate of int | Uint64 | Int_below of int | Reseed of string

(* Bounds just above 2^61 reject about half of all draws. *)
let gen_drbg_op =
  QCheck.Gen.(
    frequency
      [ (3, map (fun n -> Generate n) (int_range 0 100));
        (2, return Uint64);
        ( 3,
          map (fun b -> Int_below b)
            (oneof [ int_range 1 1000; int_range 1 max_int; map (( + ) (1 lsl 61)) (int_bound 1000) ]) );
        (1, map (fun s -> Reseed s) (string_size (int_range 1 80))) ])

let prop_drbg_oracle =
  QCheck.Test.make ~name:"drbg matches oracle" ~count:100
    QCheck.(
      triple string (string_of_size Gen.(int_range 0 80))
        (make Gen.(list_size (int_range 0 20) gen_drbg_op)))
    (fun (seed, personalization, ops) ->
      let d = Drbg.create ~personalization ~seed () in
      let o = Drbg_oracle.create ~personalization ~seed () in
      List.for_all
        (function
          | Generate n -> Drbg.generate d n = Drbg_oracle.generate o n
          | Uint64 -> Drbg.uint64 d = Drbg_oracle.uint64 o
          | Int_below b -> Drbg.int_below d b = Drbg_oracle.int_below o b
          | Reseed e -> Drbg.reseed d e; Drbg_oracle.reseed o e; true)
        ops
      && Drbg.generate d 32 = Drbg_oracle.generate o 32)

let test_drbg_int_below_alloc () =
  let d = Drbg.create ~seed:"alloc" () in
  ignore (Drbg.int_below d 1000);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do ignore (Drbg.int_below d 1000) done;
  let per_call = (Gc.minor_words () -. before) /. 1000. in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per int_below" per_call) true (per_call < 32.)

let prop_drbg_int_below =
  QCheck.Test.make ~name:"drbg int_below in range" ~count:200
    QCheck.(pair string (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let d = Drbg.create ~seed () in
      let v = Drbg.int_below d bound in
      v >= 0 && v < bound)

(* --- Hex --- *)

let test_hex_roundtrip () =
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hexcodec.decode "00ff10");
  Alcotest.(check string) "upper" "\xab\xcd" (Hexcodec.decode "ABCD");
  Alcotest.check_raises "odd" (Invalid_argument "Hexcodec.decode: odd length")
    (fun () -> ignore (Hexcodec.decode "abc"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string
    (fun s -> Hexcodec.decode (Hexcodec.encode s) = s)

let qc = QCheck_alcotest.to_alcotest

let suite =
  [ ("aes", [
      Alcotest.test_case "fips197 aes-128" `Quick test_aes128_fips197;
      Alcotest.test_case "fips197 aes-192" `Quick test_aes192_fips197;
      Alcotest.test_case "fips197 aes-256" `Quick test_aes256_fips197;
      Alcotest.test_case "bad key length" `Quick test_aes_bad_key;
      Alcotest.test_case "encrypt_block allocates nothing" `Quick test_aes_no_alloc;
      qc prop_aes_oracle;
    ]);
    ("sha256", [
      Alcotest.test_case "nist vectors" `Quick test_sha256_vectors;
      Alcotest.test_case "incremental" `Quick test_sha256_incremental;
      qc prop_sha256_incremental_split;
      qc prop_sha256_oracle;
      Alcotest.test_case "update_bytes allocates nothing" `Quick test_sha256_no_alloc;
    ]);
    ("hmac", [
      Alcotest.test_case "rfc4231" `Quick test_hmac_rfc4231;
      Alcotest.test_case "hkdf rfc5869" `Quick test_hkdf_rfc5869;
      Alcotest.test_case "derive lengths" `Quick test_derive_lengths;
      qc prop_hmac_oracle;
    ]);
    ("gcm", [
      Alcotest.test_case "nist case 3" `Quick test_gcm_nist_case3;
      Alcotest.test_case "nist case 4 (aad)" `Quick test_gcm_nist_case4_aad;
      Alcotest.test_case "empty plaintext" `Quick test_gcm_empty;
      Alcotest.test_case "tamper detection" `Quick test_gcm_tamper;
      Alcotest.test_case "spec case 9 (aes-192)" `Quick test_gcm_case9;
      Alcotest.test_case "spec case 13 (aes-256, empty)" `Quick test_gcm_case13;
      Alcotest.test_case "spec case 14 (aes-256, zero block)" `Quick test_gcm_case14;
      Alcotest.test_case "spec case 15 (aes-256)" `Quick test_gcm_case15;
      Alcotest.test_case "spec case 16 (aes-256, aad)" `Quick test_gcm_case16;
      Alcotest.test_case "bad iv length" `Quick test_gcm_bad_iv;
      qc prop_gcm_roundtrip;
    ]);
    ("ccm", [
      Alcotest.test_case "rfc3610 vector 1" `Quick test_ccm_rfc3610_1;
      Alcotest.test_case "tamper detection" `Quick test_ccm_tamper;
      Alcotest.test_case "bad nonce length" `Quick test_ccm_bad_nonce;
      qc prop_ccm_roundtrip;
    ]);
    ("modes", [
      Alcotest.test_case "ctr involution" `Quick test_ctr_involution;
      qc prop_ctr_blockwise;
      Alcotest.test_case "inc32 carry" `Quick test_inc32_carry;
      Alcotest.test_case "ct_equal" `Quick test_ct_equal;
    ]);
    ("drbg", [
      Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
      Alcotest.test_case "personalization" `Quick test_drbg_personalization;
      Alcotest.test_case "reseed" `Quick test_drbg_reseed;
      Alcotest.test_case "pinned stream" `Quick test_drbg_pinned;
      Alcotest.test_case "int_below allocation" `Quick test_drbg_int_below_alloc;
      qc prop_drbg_oracle;
      qc prop_drbg_int_below;
    ]);
    ("hexcodec", [
      Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
      qc prop_hex_roundtrip;
    ]);
  ]

let () = Alcotest.run "twine_crypto" suite

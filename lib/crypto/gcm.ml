(* GHASH works on 128-bit values held as four 32-bit limbs, most
   significant first (limb 0 is bytes 0-3 of the block, big-endian).

   One multiplication by H uses a per-key table of 16 x 256 entries:
   entry (j, b) is the GF(2^128) product of H and the byte value [b]
   placed at byte position [j] of the input block, so a multiplication is
   16 lookups and xors. The table is one flat int array of four limbs per
   entry, at index 4 * (256 * j + b). Multiplication is linear, so entry
   (j, b) is entry (j, b land (b - 1)) xor the single power H * alpha^i
   for the lowest set bit of [b]: the table is built in one pass. *)

type key = { aes : Aes.key; table : int array }

let of_aes aes =
  let h = Bytes.make 16 '\000' in
  Aes.encrypt_block aes h ~src_off:0 h ~dst_off:0;
  let limb i = Int32.to_int (Bytes.get_int32_be h (4 * i)) land 0xffffffff in
  let table = Array.make (16 * 256 * 4) 0 in
  (* [v] walks the powers H * alpha^i, i = 0..127, MSB-first bit index:
     alpha is a right shift by one bit, reduced by R = 0xe1 || 0^120. *)
  let v0 = ref (limb 0) and v1 = ref (limb 1) and v2 = ref (limb 2) and v3 = ref (limb 3) in
  for j = 0 to 15 do
    for bit = 0 to 7 do
      (* H * alpha^(8j + bit) multiplies the input bit 0x80 lsr bit *)
      let e = 4 * ((256 * j) + (0x80 lsr bit)) in
      table.(e) <- !v0; table.(e + 1) <- !v1; table.(e + 2) <- !v2; table.(e + 3) <- !v3;
      let lsb = !v3 land 1 in
      v3 := (!v3 lsr 1) lor ((!v2 land 1) lsl 31);
      v2 := (!v2 lsr 1) lor ((!v1 land 1) lsl 31);
      v1 := (!v1 lsr 1) lor ((!v0 land 1) lsl 31);
      v0 := (!v0 lsr 1) lxor (if lsb = 1 then 0xe1000000 else 0)
    done;
    for b = 3 to 255 do
      let rest = b land (b - 1) in
      if rest <> 0 then begin
        let e = 4 * ((256 * j) + b)
        and x = 4 * ((256 * j) + rest)
        and y = 4 * ((256 * j) + (b lxor rest)) in
        for l = 0 to 3 do table.(e + l) <- table.(x + l) lxor table.(y + l) done
      end
    done
  done;
  { aes; table }

let of_raw raw = of_aes (Aes.expand raw)

(* [acc <- (acc xor x) * H] for the block [x0..x3], where [acc] is the
   running GHASH value as four limbs: the xor of the 16 table entries the
   bytes of [acc xor x] select, limb by limb. Indices into [t] are
   4 * (256 * j + byte) + limb, all within the table. *)
let mul_add t acc x0 x1 x2 x3 =
  let x0 = acc.(0) lxor x0 and x1 = acc.(1) lxor x1
  and x2 = acc.(2) lxor x2 and x3 = acc.(3) lxor x3 in
  (* table offset of block byte [j], which sits in word [w] *)
  let[@inline] at j w = ((j lsl 8) lor ((w lsr (24 - (8 * (j land 3)))) land 0xff)) lsl 2 in
  let i0 = at 0 x0 and i1 = at 1 x0 and i2 = at 2 x0 and i3 = at 3 x0
  and i4 = at 4 x1 and i5 = at 5 x1 and i6 = at 6 x1 and i7 = at 7 x1
  and i8 = at 8 x2 and i9 = at 9 x2 and i10 = at 10 x2 and i11 = at 11 x2
  and i12 = at 12 x3 and i13 = at 13 x3 and i14 = at 14 x3 and i15 = at 15 x3 in
  for l = 0 to 3 do
    acc.(l) <-
      Array.unsafe_get t (i0 + l) lxor Array.unsafe_get t (i1 + l)
      lxor Array.unsafe_get t (i2 + l) lxor Array.unsafe_get t (i3 + l)
      lxor Array.unsafe_get t (i4 + l) lxor Array.unsafe_get t (i5 + l)
      lxor Array.unsafe_get t (i6 + l) lxor Array.unsafe_get t (i7 + l)
      lxor Array.unsafe_get t (i8 + l) lxor Array.unsafe_get t (i9 + l)
      lxor Array.unsafe_get t (i10 + l) lxor Array.unsafe_get t (i11 + l)
      lxor Array.unsafe_get t (i12 + l) lxor Array.unsafe_get t (i13 + l)
      lxor Array.unsafe_get t (i14 + l) lxor Array.unsafe_get t (i15 + l)
  done

let[@inline] word s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff

(* GHASH over [s] zero-padded to a block multiple: full blocks are read in
   place, and only a trailing partial block is copied into a pad. *)
let ghash_string t acc s =
  let n = String.length s in
  let full = n land lnot 15 in
  let off = ref 0 in
  while !off < full do
    let o = !off in
    mul_add t acc (word s o) (word s (o + 4)) (word s (o + 8)) (word s (o + 12));
    off := o + 16
  done;
  if full < n then begin
    let pad = Bytes.make 16 '\000' in
    Bytes.blit_string s full pad 0 (n - full);
    let pad = Bytes.unsafe_to_string pad in
    mul_add t acc (word pad 0) (word pad 4) (word pad 8) (word pad 12)
  end

let j0 iv =
  if String.length iv <> 12 then invalid_arg "Gcm: IV must be 12 bytes";
  let b = Bytes.make 16 '\000' in
  Bytes.blit_string iv 0 b 0 12;
  Bytes.set b 15 '\001';
  b

let compute_tag k ~iv ~aad ct =
  let acc = Array.make 4 0 in
  ghash_string k.table acc aad;
  ghash_string k.table acc ct;
  (* Length block: bit lengths of AAD and ciphertext, 64 bits each. *)
  let bits n = 8 * String.length n in
  let abits = bits aad and cbits = bits ct in
  mul_add k.table acc (abits lsr 32) (abits land 0xffffffff) (cbits lsr 32)
    (cbits land 0xffffffff);
  let ek_j0 = Bytes.create 16 in
  Aes.encrypt_block k.aes (j0 iv) ~src_off:0 ek_j0 ~dst_off:0;
  let tag = Bytes.create 16 in
  Array.iteri (fun i l -> Bytes.set_int32_be tag (4 * i) (Int32.of_int l)) acc;
  Modes.xor_into ~src:(Bytes.unsafe_to_string ek_j0) tag ~off:0 ~len:16;
  Bytes.unsafe_to_string tag

let ctr k ~iv s =
  let counter = j0 iv in
  Modes.inc32 counter;
  let buf = Bytes.of_string s in
  Modes.ctr_transform k.aes ~counter buf ~off:0 ~len:(Bytes.length buf);
  Bytes.unsafe_to_string buf

let encrypt k ~iv ?(aad = "") plaintext =
  let ct = ctr k ~iv plaintext in
  (ct, compute_tag k ~iv ~aad ct)

let decrypt k ~iv ?(aad = "") ~tag ciphertext =
  let expected = compute_tag k ~iv ~aad ciphertext in
  if not (Modes.ct_equal expected tag) then None else Some (ctr k ~iv ciphertext)

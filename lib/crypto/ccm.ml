(* NIST SP 800-38C with the usual RFC 3610 formatting function. The length
   field width is q = 15 - nonce_len. *)

let check_params ~nonce ~tag_len =
  let n = String.length nonce in
  if n < 7 || n > 13 then invalid_arg "Ccm: nonce must be 7..13 bytes";
  if tag_len < 4 || tag_len > 16 || tag_len mod 2 <> 0 then
    invalid_arg "Ccm: tag_len must be even, 4..16";
  15 - n

(* Write [v] big-endian into the last [q] bytes of the 16-byte block [b]. *)
let set_length_field b ~q v =
  for i = 0 to q - 1 do
    Bytes.set b (15 - i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let cbc_mac key ~nonce ~aad ~tag_len pt =
  let q = check_params ~nonce ~tag_len in
  let n = String.length nonce in
  let plen = String.length pt in
  let mac = Bytes.make 16 '\000' in
  let flags =
    (if aad <> "" then 0x40 else 0)
    lor (((tag_len - 2) / 2) lsl 3)
    lor (q - 1)
  in
  Bytes.set mac 0 (Char.chr flags);
  Bytes.blit_string nonce 0 mac 1 n;
  set_length_field mac ~q plen;
  Aes.encrypt_block key mac ~src_off:0 mac ~dst_off:0;
  (* CBC-MAC over [s] zero-padded to a block multiple, read in place: the
     zero padding of a partial block leaves those MAC bytes unchanged. *)
  let absorb s =
    let s = Bytes.unsafe_of_string s in
    let len = Bytes.length s in
    let pos = ref 0 in
    while !pos < len do
      Modes.xor_bytes ~src:s ~src_off:!pos mac ~dst_off:0 ~len:(min 16 (len - !pos));
      Aes.encrypt_block key mac ~src_off:0 mac ~dst_off:0;
      pos := !pos + 16
    done
  in
  (* Associated data with its length prefix. *)
  if aad <> "" then begin
    let alen = String.length aad in
    let header =
      if alen < 0xff00 then
        let b = Bytes.create 2 in
        Bytes.set_uint16_be b 0 alen;
        b
      else
        (* 0xfffe prefix + 32-bit length *)
        let b = Bytes.create 6 in
        Bytes.set_uint16_be b 0 0xfffe;
        Bytes.set_int32_be b 2 (Int32.of_int alen);
        b
    in
    absorb (Bytes.unsafe_to_string header ^ aad)
  end;
  absorb pt;
  Bytes.to_string mac

(* Counter block A_i: flags q-1, the nonce, then i in the length field. *)
let counter_block ~nonce =
  let q = 15 - String.length nonce in
  let b = Bytes.make 16 '\000' in
  Bytes.set b 0 (Char.chr (q - 1));
  Bytes.blit_string nonce 0 b 1 (String.length nonce);
  (b, q)

(* A_1.. blocks encrypt the payload, all from one counter block. *)
let ctr_stream key ~nonce buf =
  let len = Bytes.length buf in
  let a, q = counter_block ~nonce in
  let ks = Bytes.create 16 in
  let pos = ref 0 and i = ref 1 in
  while !pos < len do
    set_length_field a ~q !i;
    Aes.encrypt_block key a ~src_off:0 ks ~dst_off:0;
    Modes.xor_bytes ~src:ks ~src_off:0 buf ~dst_off:!pos ~len:(min 16 (len - !pos));
    pos := !pos + 16;
    incr i
  done

(* A_0 encrypts the MAC. *)
let mac_mask key ~nonce =
  let a, _ = counter_block ~nonce in
  Aes.encrypt_block key a ~src_off:0 a ~dst_off:0;
  Bytes.unsafe_to_string a

let encrypt key ~nonce ?(aad = "") ?(tag_len = 16) pt =
  let mac = cbc_mac key ~nonce ~aad ~tag_len pt in
  let mask = mac_mask key ~nonce in
  let tag =
    String.init tag_len (fun i -> Char.chr (Char.code mac.[i] lxor Char.code mask.[i]))
  in
  let buf = Bytes.of_string pt in
  ctr_stream key ~nonce buf;
  (Bytes.unsafe_to_string buf, tag)

let decrypt key ~nonce ?(aad = "") ~tag ciphertext =
  let tag_len = String.length tag in
  if tag_len < 4 || tag_len > 16 || tag_len mod 2 <> 0 then None
  else begin
    (* the nonce length fixes the counter block's layout *)
    ignore (check_params ~nonce ~tag_len);
    let buf = Bytes.of_string ciphertext in
    ctr_stream key ~nonce buf;
    let pt = Bytes.unsafe_to_string buf in
    let mac = cbc_mac key ~nonce ~aad ~tag_len pt in
    let mask = mac_mask key ~nonce in
    let expected =
      String.init tag_len (fun i -> Char.chr (Char.code mac.[i] lxor Char.code mask.[i]))
    in
    if Modes.ct_equal expected tag then Some pt else None
  end

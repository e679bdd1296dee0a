(* AES (FIPS 197), forward cipher only. The state is four big-endian 32-bit
   column words held in int locals; round keys are precomputed by [expand].

   Table layout: [te] holds four 256-entry T-tables back to back. Entry
   [x] of the first maps a byte [x] in row 0 to its MixColumns column
   after SubBytes: the word (2s, s, s, 3s) with s = sbox.(x), most
   significant byte first. Entry [256 * r + x] is that word rotated right
   by 8r bits: the column for the same byte in row r. A full round
   (SubBytes, ShiftRows, MixColumns, AddRoundKey) is then four lookups and
   four xors per output word; the last round, which has no MixColumns,
   uses [sbox] directly. The tables are built from [sbox] at module
   initialisation. *)

let sbox = [|
  0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b;
  0xfe; 0xd7; 0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0;
  0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26;
  0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
  0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2;
  0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0;
  0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
  0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
  0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f;
  0x50; 0x3c; 0x9f; 0xa8; 0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5;
  0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec;
  0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
  0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14;
  0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
  0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d;
  0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
  0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f;
  0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e;
  0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e; 0xe1; 0xf8; 0x98; 0x11;
  0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
  0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
  0xb0; 0x54; 0xbb; 0x16 |]

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1b) land 0xff else (b lsl 1) land 0xff

let ror8 w = ((w lsr 8) lor (w lsl 24)) land 0xffffffff

let te0 =
  Array.map
    (fun s -> (xtime s lsl 24) lor (s lsl 16) lor (s lsl 8) lor (xtime s lxor s))
    sbox

let te =
  let te1 = Array.map ror8 te0 in
  let te2 = Array.map ror8 te1 in
  Array.concat [ te0; te1; te2; Array.map ror8 te2 ]

type key = { rounds : int; rk : int array; bits : int }
(* [rk] holds 4*(rounds+1) round-key words, big-endian packed. *)

let key_bits k = k.bits

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let sub_word w =
  (sbox.((w lsr 24) land 0xff) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xffffffff

let expand raw =
  let nk =
    match String.length raw with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | n -> invalid_arg (Printf.sprintf "Aes.expand: bad key length %d" n)
  in
  let rounds = nk + 6 in
  let nwords = 4 * (rounds + 1) in
  let rk = Array.make nwords 0 in
  for i = 0 to nk - 1 do
    rk.(i) <- Int32.to_int (String.get_int32_be raw (4 * i)) land 0xffffffff
  done;
  for i = nk to nwords - 1 do
    let temp = rk.(i - 1) in
    let temp =
      if i mod nk = 0 then sub_word (rot_word temp) lxor (rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    rk.(i) <- rk.(i - nk) lxor temp
  done;
  { rounds; rk; bits = nk * 32 }

let[@inline] get_word b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let[@inline] set_word b off w = Bytes.set_int32_be b off (Int32.of_int w)

(* One output column of a full round, before AddRoundKey: [a] supplies
   row 0, [b] row 1, [c] row 2 and [d] row 3 (ShiftRows is the choice of
   arguments). Indices are bytes of 32-bit words, so the unchecked reads
   are in bounds. *)
let[@inline] round_col a b c d =
  Array.unsafe_get te (a lsr 24)
  lxor Array.unsafe_get te (0x100 lor ((b lsr 16) land 0xff))
  lxor Array.unsafe_get te (0x200 lor ((c lsr 8) land 0xff))
  lxor Array.unsafe_get te (0x300 lor (d land 0xff))

(* The same for the last round, which has no MixColumns. *)
let[@inline] last_col a b c d =
  (Array.unsafe_get sbox (a lsr 24) lsl 24)
  lor (Array.unsafe_get sbox ((b lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get sbox ((c lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get sbox (d land 0xff)

let encrypt_block k src ~src_off dst ~dst_off =
  let rk = k.rk in
  let s0 = ref (get_word src src_off lxor rk.(0)) in
  let s1 = ref (get_word src (src_off + 4) lxor rk.(1)) in
  let s2 = ref (get_word src (src_off + 8) lxor rk.(2)) in
  let s3 = ref (get_word src (src_off + 12) lxor rk.(3)) in
  for round = 1 to k.rounds - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let r = 4 * round in
    s0 := round_col a0 a1 a2 a3 lxor Array.unsafe_get rk r;
    s1 := round_col a1 a2 a3 a0 lxor Array.unsafe_get rk (r + 1);
    s2 := round_col a2 a3 a0 a1 lxor Array.unsafe_get rk (r + 2);
    s3 := round_col a3 a0 a1 a2 lxor Array.unsafe_get rk (r + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  let r = 4 * k.rounds in
  set_word dst dst_off (last_col a0 a1 a2 a3 lxor Array.unsafe_get rk r);
  set_word dst (dst_off + 4) (last_col a1 a2 a3 a0 lxor Array.unsafe_get rk (r + 1));
  set_word dst (dst_off + 8) (last_col a2 a3 a0 a1 lxor Array.unsafe_get rk (r + 2));
  set_word dst (dst_off + 12) (last_col a3 a0 a1 a2 lxor Array.unsafe_get rk (r + 3))

let encrypt_block_str k s =
  if String.length s <> 16 then invalid_arg "Aes.encrypt_block_str: need 16 bytes";
  let b = Bytes.of_string s in
  encrypt_block k b ~src_off:0 b ~dst_off:0;
  Bytes.to_string b

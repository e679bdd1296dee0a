(* SHA-256 over 32-bit words represented as OCaml ints masked to 32 bits.

   Nothing here allocates once a context exists: the 64-word message
   schedule lives in the context and is refilled per block, words load
   and store big-endian with [Bytes.get_int32_be]/[set_int32_be], and
   [finalize_into] pads inside the context's block buffer.

   Rotations use the doubled word [d = x lor (x lsl 32)]: bits 0..31 of
   [d] are [x] and bits 32..62 repeat [x]'s bits 0..30, so for n <= 31
   bits n..n+31 of [d] are [x] rotated right by n. Each Sigma function
   xors its shifted copies of one [d] and masks once. Additions are
   masked only where a value must be a clean 32-bit word again (a state
   word or a schedule word): the low 32 bits of a sum or an xor depend
   only on the low 32 bits of its operands. *)

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
  0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
  0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
  0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
  0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
  0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let iv = [|
  0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
  0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array;                 (* 8 chaining words *)
  w : int array;                 (* 64-word message schedule, scratch *)
  buf : Bytes.t;                 (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int;           (* total bytes processed *)
}

let init () =
  { h = Array.copy iv; w = Array.make 64 0; buf = Bytes.create 64; buf_len = 0; total = 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

let copy_into ~src dst =
  Array.blit src.h 0 dst.h 0 8;
  Bytes.blit src.buf 0 dst.buf 0 src.buf_len;
  dst.buf_len <- src.buf_len;
  dst.total <- src.total

let mask = 0xffffffff

let[@inline] get_word b off = Int32.to_int (Bytes.get_int32_be b off) land mask
let[@inline] set_word b off w = Bytes.set_int32_be b off (Int32.of_int w)
let[@inline] double x = x lor (x lsl 32)

(* The schedule and round indices are below 64, the length of [k] and
   [w], so the unchecked reads and writes are in bounds. *)
let compress ctx block off =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 15 do
    Array.unsafe_set w i (get_word block (off + (4 * i)))
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let dx = double x and dy = double y in
    let s0 = (dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3) in
    let s1 = (dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3)
  and e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let de = double !e and da = double !a in
    let s1 = (de lsr 6) lxor (de lsr 11) lxor (de lsr 25) in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = (da lsr 2) lxor (da lsr 13) lxor (da lsr 22) in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    hh := !g; g := !f; f := !e; e := (!d + t1) land mask;
    d := !c; c := !b; b := !a; a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask; h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask; h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask; h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask; h.(7) <- (h.(7) + !hh) land mask

let update_bytes ctx src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.update_bytes";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Fill a partial buffered block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) !remaining in
    Bytes.blit src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take; remaining := !remaining - take;
    if ctx.buf_len = 64 then begin compress ctx ctx.buf 0; ctx.buf_len <- 0 end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64; remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s =
  update_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* Padding: 0x80, zeros up to byte 56 of a block (spilling into a second
   block when fewer than 9 bytes are free), then the 64-bit message
   length in bits. *)
let finalize_into ctx out off =
  if off < 0 || off + 32 > Bytes.length out then invalid_arg "Sha256.finalize_into";
  let buf = ctx.buf and n = ctx.buf_len + 1 in
  Bytes.set buf ctx.buf_len '\x80';
  if n > 56 then begin
    Bytes.fill buf n (64 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf n (56 - n) '\000';
  let bit_len = ctx.total * 8 in
  set_word buf 56 (bit_len lsr 32);
  set_word buf 60 (bit_len land mask);
  compress ctx buf 0;
  for i = 0 to 7 do
    set_word out (off + (4 * i)) ctx.h.(i)
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

(* 8 bytes at a time, then byte by byte for the tail. *)
let xor_bytes ~src ~src_off dst ~dst_off ~len =
  let i = ref 0 in
  while !i + 8 <= len do
    let s = src_off + !i and d = dst_off + !i in
    Bytes.set_int64_ne dst d
      (Int64.logxor (Bytes.get_int64_ne dst d) (Bytes.get_int64_ne src s));
    i := !i + 8
  done;
  for j = !i to len - 1 do
    let s = src_off + j and d = dst_off + j in
    Bytes.set dst d
      (Char.unsafe_chr (Char.code (Bytes.get dst d) lxor Char.code (Bytes.get src s)))
  done

let xor_into ~src buf ~off ~len =
  xor_bytes ~src:(Bytes.unsafe_of_string src) ~src_off:0 buf ~dst_off:off ~len

let ct_equal a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

let inc32 block =
  Bytes.set_int32_be block 12 (Int32.succ (Bytes.get_int32_be block 12))

let ctr_transform key ~counter buf ~off ~len =
  let ks = Bytes.create 16 in
  let pos = ref 0 in
  while !pos < len do
    Aes.encrypt_block key counter ~src_off:0 ks ~dst_off:0;
    inc32 counter;
    xor_bytes ~src:ks ~src_off:0 buf ~dst_off:(off + !pos) ~len:(min 16 (len - !pos));
    pos := !pos + 16
  done

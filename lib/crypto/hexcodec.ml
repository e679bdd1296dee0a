let digits = "0123456789abcdef"

let encode s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      Bytes.set out (2 * i) digits.[b lsr 4];
      Bytes.set out ((2 * i) + 1) digits.[b land 0xf])
    s;
  Bytes.unsafe_to_string out

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hexcodec.decode: non-hex character"

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Hexcodec.decode: odd length";
  String.init (n / 2) (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))

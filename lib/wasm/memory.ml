open Values

type t = {
  mutable data : Bytes.t;
  mutable pages : int;
  max_pages : int;
  hook : (addr:int -> len:int -> unit) option ref;
}

let max_addressable_pages = 65536

let create (l : Types.limits) =
  let max_pages = Option.value l.max ~default:max_addressable_pages in
  if l.min > max_pages then invalid_arg "Memory.create: min > max";
  {
    data = Bytes.make (l.min * Types.page_size) '\000';
    pages = l.min;
    max_pages;
    hook = ref None;
  }

let size_pages t = t.pages
let size_bytes t = t.pages * Types.page_size
let max_pages t = t.max_pages
let on_access t = t.hook

let grow t delta =
  if delta < 0 then trap "memory.grow: negative delta";
  let new_pages = t.pages + delta in
  if new_pages > t.max_pages || new_pages > max_addressable_pages then -1l
  else begin
    let old = t.pages in
    let grown = Bytes.make (new_pages * Types.page_size) '\000' in
    Bytes.blit t.data 0 grown 0 (Bytes.length t.data);
    t.data <- grown;
    t.pages <- new_pages;
    Int32.of_int old
  end

let check t addr len =
  if addr < 0 || len < 0 || addr + len > size_bytes t then
    trap "out of bounds memory access";
  match !(t.hook) with Some f -> f ~addr ~len | None -> ()

let load8_u t a =
  check t a 1;
  Int32.of_int (Char.code (Bytes.unsafe_get t.data a))

let load8_s t a =
  check t a 1;
  let v = Char.code (Bytes.unsafe_get t.data a) in
  Int32.of_int (if v >= 128 then v - 256 else v)

let load16_u t a =
  check t a 2;
  Int32.of_int (Bytes.get_uint16_le t.data a)

let load16_s t a =
  check t a 2;
  Int32.of_int (Bytes.get_int16_le t.data a)

let load32 t a =
  check t a 4;
  Bytes.get_int32_le t.data a

let load64 t a =
  check t a 8;
  Bytes.get_int64_le t.data a

let store8 t a v =
  check t a 1;
  Bytes.unsafe_set t.data a (Char.unsafe_chr (Int32.to_int v land 0xff))

let store16 t a v =
  check t a 2;
  Bytes.set_uint16_le t.data a (Int32.to_int v land 0xffff)

let store32 t a v =
  check t a 4;
  Bytes.set_int32_le t.data a v

let store64 t a v =
  check t a 8;
  Bytes.set_int64_le t.data a v

(* Register-file transfers: a full-width access between linear memory
   and a [Bytes] offset, so a compiled tier moves values without boxing. *)
let load32_to t a dst o =
  check t a 4;
  Bytes.set_int32_le dst o (Bytes.get_int32_le t.data a)

let load64_to t a dst o =
  check t a 8;
  Bytes.set_int64_le dst o (Bytes.get_int64_le t.data a)

let store32_from t a src o =
  check t a 4;
  Bytes.set_int32_le t.data a (Bytes.get_int32_le src o)

let store64_from t a src o =
  check t a 8;
  Bytes.set_int64_le t.data a (Bytes.get_int64_le src o)

let load_bytes t a n =
  check t a n;
  Bytes.sub_string t.data a n

let store_bytes t a s =
  check t a (String.length s);
  Bytes.blit_string s 0 t.data a (String.length s)

let load_cstring t a =
  let rec find_end i =
    if i >= size_bytes t then trap "unterminated string"
    else if Bytes.get t.data i = '\000' then i
    else find_end (i + 1)
  in
  if a < 0 || a >= size_bytes t then trap "out of bounds memory access";
  let e = find_end a in
  (* bounds-check the scanned range (including the NUL) through [check]
     so the access hook sees the read and EPC pressure is accounted *)
  check t a (e - a + 1);
  Bytes.sub_string t.data a (e - a)

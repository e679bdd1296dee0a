(* Runtime values and the numeric semantics of WebAssembly operators.
   f32 values are represented as OCaml floats that are always the exact
   image of a 32-bit float (re-rounded through Int32 bits after every
   operation). *)

type value = I32 of int32 | I64 of int64 | F32 of float | F64 of float

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let type_of = function I32 _ -> Types.I32 | I64 _ -> Types.I64 | F32 _ -> Types.F32 | F64 _ -> Types.F64

let default_value = function
  | Types.I32 -> I32 0l
  | Types.I64 -> I64 0L
  | Types.F32 -> F32 0.
  | Types.F64 -> F64 0.

let to_string = function
  | I32 v -> Printf.sprintf "i32:%ld" v
  | I64 v -> Printf.sprintf "i64:%Ld" v
  | F32 v -> Printf.sprintf "f32:%h" v
  | F64 v -> Printf.sprintf "f64:%h" v

let f32_round f = Int32.float_of_bits (Int32.bits_of_float f)

(* --- i32 helpers --- *)

let i32_of_bool b = if b then 1l else 0l

let u32_compare a b =
  (* unsigned comparison via flipping the sign bit *)
  Int32.compare (Int32.logxor a Int32.min_int) (Int32.logxor b Int32.min_int)

let u64_compare a b =
  Int64.compare (Int64.logxor a Int64.min_int) (Int64.logxor b Int64.min_int)

let i32_divs a b =
  if b = 0l then trap "integer divide by zero"
  else if a = Int32.min_int && b = -1l then trap "integer overflow"
  else Int32.div a b

let i32_divu a b =
  if b = 0l then trap "integer divide by zero" else Int32.unsigned_div a b

let i32_rems a b = if b = 0l then trap "integer divide by zero" else Int32.rem a b
let i32_remu a b = if b = 0l then trap "integer divide by zero" else Int32.unsigned_rem a b

let i32_shl a b = Int32.shift_left a (Int32.to_int (Int32.logand b 31l))
let i32_shrs a b = Int32.shift_right a (Int32.to_int (Int32.logand b 31l))
let i32_shru a b = Int32.shift_right_logical a (Int32.to_int (Int32.logand b 31l))

let i32_rotl a b =
  let n = Int32.to_int (Int32.logand b 31l) in
  if n = 0 then a
  else Int32.logor (Int32.shift_left a n) (Int32.shift_right_logical a (32 - n))

let i32_rotr a b =
  let n = Int32.to_int (Int32.logand b 31l) in
  if n = 0 then a
  else Int32.logor (Int32.shift_right_logical a n) (Int32.shift_left a (32 - n))

let i32_clz a =
  if a = 0l then 32l
  else begin
    let rec go n mask =
      if Int32.logand a mask <> 0l then n else go (n + 1) (Int32.shift_right_logical mask 1)
    in
    Int32.of_int (go 0 Int32.min_int)
  end

let i32_ctz a =
  if a = 0l then 32l
  else begin
    let rec go n mask =
      if Int32.logand a mask <> 0l then n else go (n + 1) (Int32.shift_left mask 1)
    in
    Int32.of_int (go 0 1l)
  end

let i32_popcnt a =
  let c = ref 0 in
  for i = 0 to 31 do
    if Int32.logand (Int32.shift_right_logical a i) 1l = 1l then incr c
  done;
  Int32.of_int !c

(* --- i64 helpers --- *)

let i64_divs a b =
  if b = 0L then trap "integer divide by zero"
  else if a = Int64.min_int && b = -1L then trap "integer overflow"
  else Int64.div a b

let i64_divu a b = if b = 0L then trap "integer divide by zero" else Int64.unsigned_div a b
let i64_rems a b = if b = 0L then trap "integer divide by zero" else Int64.rem a b
let i64_remu a b = if b = 0L then trap "integer divide by zero" else Int64.unsigned_rem a b

let i64_shl a b = Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
let i64_shrs a b = Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
let i64_shru a b = Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))

let i64_rotl a b =
  let n = Int64.to_int (Int64.logand b 63L) in
  if n = 0 then a
  else Int64.logor (Int64.shift_left a n) (Int64.shift_right_logical a (64 - n))

let i64_rotr a b =
  let n = Int64.to_int (Int64.logand b 63L) in
  if n = 0 then a
  else Int64.logor (Int64.shift_right_logical a n) (Int64.shift_left a (64 - n))

let i64_clz a =
  if a = 0L then 64L
  else begin
    let rec go n mask =
      if Int64.logand a mask <> 0L then n else go (n + 1) (Int64.shift_right_logical mask 1)
    in
    Int64.of_int (go 0 Int64.min_int)
  end

let i64_ctz a =
  if a = 0L then 64L
  else begin
    let rec go n mask =
      if Int64.logand a mask <> 0L then n else go (n + 1) (Int64.shift_left mask 1)
    in
    Int64.of_int (go 0 1L)
  end

let i64_popcnt a =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical a i) 1L = 1L then incr c
  done;
  Int64.of_int !c

(* --- float helpers --- *)

let f_nearest x =
  (* round-half-to-even *)
  if Float.is_nan x || Float.is_integer x then x
  else begin
    let lo = Float.floor x and hi = Float.ceil x in
    let result =
      let dl = x -. lo and dh = hi -. x in
      if dl < dh then lo
      else if dh < dl then hi
      else if Float.rem lo 2. = 0. then lo
      else hi
    in
    if result = 0. && x < 0. then -0. else result
  end

let f_min a b =
  if Float.is_nan a || Float.is_nan b then Float.nan
  else if a = 0. && b = 0. then (if 1. /. a < 0. || 1. /. b < 0. then -0. else 0.)
  else Float.min a b

let f_max a b =
  if Float.is_nan a || Float.is_nan b then Float.nan
  else if a = 0. && b = 0. then (if 1. /. a > 0. || 1. /. b > 0. then 0. else -0.)
  else Float.max a b

(* --- trapping float-to-int conversions --- *)

let i32_trunc_f ~signed x =
  if Float.is_nan x then trap "invalid conversion to integer";
  let x = Float.trunc x in
  if signed then begin
    if x >= 2147483648.0 || x < -2147483648.0 then trap "integer overflow";
    Int32.of_float x
  end
  else begin
    if x >= 4294967296.0 || x <= -1.0 then trap "integer overflow";
    (* values >= 2^31 need wrapping into int32 *)
    Int64.to_int32 (Int64.of_float x)
  end

let i64_trunc_f ~signed x =
  if Float.is_nan x then trap "invalid conversion to integer";
  let x = Float.trunc x in
  if signed then begin
    if x >= 9.2233720368547758e18 || x < -9.2233720368547758e18 then trap "integer overflow";
    Int64.of_float x
  end
  else begin
    if x >= 1.8446744073709552e19 || x <= -1.0 then trap "integer overflow";
    if x < 9.2233720368547758e18 then Int64.of_float x
    else Int64.add (Int64.of_float (x -. 9.2233720368547758e18)) Int64.min_int
  end

let f_convert_i32_u v =
  let i = Int64.logand (Int64.of_int32 v) 0xffffffffL in
  Int64.to_float i

let f_convert_i64_u v =
  if Int64.compare v 0L >= 0 then Int64.to_float v
  else begin
    (* split to preserve precision like the spec's algorithm *)
    let shifted = Int64.shift_right_logical v 1 in
    let lsb = Int64.logand v 1L in
    (Int64.to_float shifted *. 2.0) +. Int64.to_float lsb
  end

(* --- sign extension ops --- *)

let i32_extend8_s v = Int32.shift_right (Int32.shift_left v 24) 24
let i32_extend16_s v = Int32.shift_right (Int32.shift_left v 16) 16
let i64_extend8_s v = Int64.shift_right (Int64.shift_left v 56) 56
let i64_extend16_s v = Int64.shift_right (Int64.shift_left v 48) 48
let i64_extend32_s v = Int64.shift_right (Int64.shift_left v 32) 32

(* --- applying the AST operator constructors --- *)

open Ast

let eval_i32_unop op v =
  match op with Clz -> i32_clz v | Ctz -> i32_ctz v | Popcnt -> i32_popcnt v

let eval_i64_unop op v =
  match op with Clz -> i64_clz v | Ctz -> i64_ctz v | Popcnt -> i64_popcnt v

let eval_i32_binop op a b =
  match op with
  | Add -> Int32.add a b
  | Sub -> Int32.sub a b
  | Mul -> Int32.mul a b
  | Div_s -> i32_divs a b
  | Div_u -> i32_divu a b
  | Rem_s -> i32_rems a b
  | Rem_u -> i32_remu a b
  | And -> Int32.logand a b
  | Or -> Int32.logor a b
  | Xor -> Int32.logxor a b
  | Shl -> i32_shl a b
  | Shr_s -> i32_shrs a b
  | Shr_u -> i32_shru a b
  | Rotl -> i32_rotl a b
  | Rotr -> i32_rotr a b

let eval_i64_binop op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div_s -> i64_divs a b
  | Div_u -> i64_divu a b
  | Rem_s -> i64_rems a b
  | Rem_u -> i64_remu a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> i64_shl a b
  | Shr_s -> i64_shrs a b
  | Shr_u -> i64_shru a b
  | Rotl -> i64_rotl a b
  | Rotr -> i64_rotr a b

let eval_i32_relop op a b =
  i32_of_bool
    (match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt_s -> Int32.compare a b < 0
    | Lt_u -> u32_compare a b < 0
    | Gt_s -> Int32.compare a b > 0
    | Gt_u -> u32_compare a b > 0
    | Le_s -> Int32.compare a b <= 0
    | Le_u -> u32_compare a b <= 0
    | Ge_s -> Int32.compare a b >= 0
    | Ge_u -> u32_compare a b >= 0)

let eval_i64_relop op a b =
  i32_of_bool
    (match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt_s -> Int64.compare a b < 0
    | Lt_u -> u64_compare a b < 0
    | Gt_s -> Int64.compare a b > 0
    | Gt_u -> u64_compare a b > 0
    | Le_s -> Int64.compare a b <= 0
    | Le_u -> u64_compare a b <= 0
    | Ge_s -> Int64.compare a b >= 0
    | Ge_u -> u64_compare a b >= 0)

let eval_f_unop op v =
  match op with
  | Abs -> Float.abs v
  | Neg -> -.v
  | Sqrt -> Float.sqrt v
  | Ceil -> Float.ceil v
  | Floor -> Float.floor v
  | Trunc -> Float.trunc v
  | Nearest -> f_nearest v

let eval_f_binop op a b =
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Fmin -> f_min a b
  | Fmax -> f_max a b
  | Copysign -> Float.copy_sign a b

let eval_f_relop op a b =
  i32_of_bool
    (match op with
    | Feq -> a = b
    | Fne -> a <> b
    | Flt -> a < b
    | Fgt -> a > b
    | Fle -> a <= b
    | Fge -> a >= b)

let eval_cvt op v =
  match (op, v) with
  | I32_wrap_i64, I64 x -> I32 (Int64.to_int32 x)
  | I64_extend_i32_s, I32 x -> I64 (Int64.of_int32 x)
  | I64_extend_i32_u, I32 x -> I64 (Int64.logand (Int64.of_int32 x) 0xffffffffL)
  | I32_trunc_f32_s, F32 x | I32_trunc_f64_s, F64 x -> I32 (i32_trunc_f ~signed:true x)
  | I32_trunc_f32_u, F32 x | I32_trunc_f64_u, F64 x -> I32 (i32_trunc_f ~signed:false x)
  | I64_trunc_f32_s, F32 x | I64_trunc_f64_s, F64 x -> I64 (i64_trunc_f ~signed:true x)
  | I64_trunc_f32_u, F32 x | I64_trunc_f64_u, F64 x -> I64 (i64_trunc_f ~signed:false x)
  | F32_convert_i32_s, I32 x -> F32 (f32_round (Int32.to_float x))
  | F32_convert_i32_u, I32 x -> F32 (f32_round (f_convert_i32_u x))
  | F32_convert_i64_s, I64 x -> F32 (f32_round (Int64.to_float x))
  | F32_convert_i64_u, I64 x -> F32 (f32_round (f_convert_i64_u x))
  | F64_convert_i32_s, I32 x -> F64 (Int32.to_float x)
  | F64_convert_i32_u, I32 x -> F64 (f_convert_i32_u x)
  | F64_convert_i64_s, I64 x -> F64 (Int64.to_float x)
  | F64_convert_i64_u, I64 x -> F64 (f_convert_i64_u x)
  | F32_demote_f64, F64 x -> F32 (f32_round x)
  | F64_promote_f32, F32 x -> F64 x
  | I32_reinterpret_f32, F32 x -> I32 (Int32.bits_of_float x)
  | I64_reinterpret_f64, F64 x -> I64 (Int64.bits_of_float x)
  | F32_reinterpret_i32, I32 x -> F32 (Int32.float_of_bits x)
  | F64_reinterpret_i64, I64 x -> F64 (Int64.float_of_bits x)
  | I32_extend8_s, I32 x -> I32 (i32_extend8_s x)
  | I32_extend16_s, I32 x -> I32 (i32_extend16_s x)
  | I64_extend8_s, I64 x -> I64 (i64_extend8_s x)
  | I64_extend16_s, I64 x -> I64 (i64_extend16_s x)
  | I64_extend32_s, I64 x -> I64 (i64_extend32_s x)
  | _ -> trap "conversion applied to value of wrong type"

(* --- numeric instructions: signature and boxed evaluation, shared by
   the validator and both engines --- *)

let cvt_types : cvtop -> Types.valtype * Types.valtype = function
  | I32_wrap_i64 -> (I64, I32)
  | I64_extend_i32_s | I64_extend_i32_u -> (I32, I64)
  | I32_trunc_f32_s | I32_trunc_f32_u -> (F32, I32)
  | I32_trunc_f64_s | I32_trunc_f64_u -> (F64, I32)
  | I64_trunc_f32_s | I64_trunc_f32_u -> (F32, I64)
  | I64_trunc_f64_s | I64_trunc_f64_u -> (F64, I64)
  | F32_convert_i32_s | F32_convert_i32_u -> (I32, F32)
  | F32_convert_i64_s | F32_convert_i64_u -> (I64, F32)
  | F64_convert_i32_s | F64_convert_i32_u -> (I32, F64)
  | F64_convert_i64_s | F64_convert_i64_u -> (I64, F64)
  | F32_demote_f64 -> (F64, F32)
  | F64_promote_f32 -> (F32, F64)
  | I32_reinterpret_f32 -> (F32, I32)
  | I64_reinterpret_f64 -> (F64, I64)
  | F32_reinterpret_i32 -> (I32, F32)
  | F64_reinterpret_i64 -> (I64, F64)
  | I32_extend8_s | I32_extend16_s -> (I32, I32)
  | I64_extend8_s | I64_extend16_s | I64_extend32_s -> (I64, I64)

(* Operand types (deepest first) and result type of a numeric instruction. *)
let numeric_sig : instr -> (Types.valtype list * Types.valtype) option = function
  | I32_unop _ | I32_eqz -> Some ([ I32 ], I32)
  | I64_unop _ -> Some ([ I64 ], I64)
  | I64_eqz -> Some ([ I64 ], I32)
  | F32_unop _ -> Some ([ F32 ], F32)
  | F64_unop _ -> Some ([ F64 ], F64)
  | Cvt op -> let src, dst = cvt_types op in Some ([ src ], dst)
  | I32_binop _ | I32_relop _ -> Some ([ I32; I32 ], I32)
  | I64_binop _ -> Some ([ I64; I64 ], I64)
  | I64_relop _ -> Some ([ I64; I64 ], I32)
  | F32_binop _ -> Some ([ F32; F32 ], F32)
  | F64_binop _ -> Some ([ F64; F64 ], F64)
  | F32_relop _ -> Some ([ F32; F32 ], I32)
  | F64_relop _ -> Some ([ F64; F64 ], I32)
  | _ -> None

let eval_unary (i : instr) v =
  match (i, v) with
  | I32_unop op, I32 x -> I32 (eval_i32_unop op x)
  | I64_unop op, I64 x -> I64 (eval_i64_unop op x)
  | I32_eqz, I32 x -> I32 (i32_of_bool (x = 0l))
  | I64_eqz, I64 x -> I32 (i32_of_bool (x = 0L))
  | F32_unop op, F32 x -> F32 (f32_round (eval_f_unop op x))
  | F64_unop op, F64 x -> F64 (eval_f_unop op x)
  | Cvt op, v -> eval_cvt op v
  | _ -> trap "unary operator applied to value of wrong type"

let eval_binary (i : instr) a b =
  match (i, a, b) with
  | I32_binop op, I32 a, I32 b -> I32 (eval_i32_binop op a b)
  | I64_binop op, I64 a, I64 b -> I64 (eval_i64_binop op a b)
  | I32_relop op, I32 a, I32 b -> I32 (eval_i32_relop op a b)
  | I64_relop op, I64 a, I64 b -> I32 (eval_i64_relop op a b)
  | F32_binop op, F32 a, F32 b -> F32 (f32_round (eval_f_binop op a b))
  | F64_binop op, F64 a, F64 b -> F64 (eval_f_binop op a b)
  | (F32_relop op, F32 a, F32 b | F64_relop op, F64 a, F64 b) -> I32 (eval_f_relop op a b)
  | _ -> trap "binary operator applied to values of wrong type"

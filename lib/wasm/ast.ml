(* Abstract syntax of WebAssembly modules (MVP + sign-extension ops).
   Instructions are structured (nested blocks), as in the spec's abstract
   syntax; the binary codec flattens/rebuilds them. *)

open Types

type memarg = { offset : int; align : int }

type iunop = Clz | Ctz | Popcnt
type ibinop =
  | Add | Sub | Mul | Div_s | Div_u | Rem_s | Rem_u
  | And | Or | Xor | Shl | Shr_s | Shr_u | Rotl | Rotr
type irelop = Eq | Ne | Lt_s | Lt_u | Gt_s | Gt_u | Le_s | Le_u | Ge_s | Ge_u
type funop = Abs | Neg | Sqrt | Ceil | Floor | Trunc | Nearest
type fbinop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Copysign
type frelop = Feq | Fne | Flt | Fgt | Fle | Fge

(* Conversions; the first type is the destination. *)
type cvtop =
  | I32_wrap_i64
  | I64_extend_i32_s | I64_extend_i32_u
  | I32_trunc_f32_s | I32_trunc_f32_u | I32_trunc_f64_s | I32_trunc_f64_u
  | I64_trunc_f32_s | I64_trunc_f32_u | I64_trunc_f64_s | I64_trunc_f64_u
  | F32_convert_i32_s | F32_convert_i32_u | F32_convert_i64_s | F32_convert_i64_u
  | F64_convert_i32_s | F64_convert_i32_u | F64_convert_i64_s | F64_convert_i64_u
  | F32_demote_f64 | F64_promote_f32
  | I32_reinterpret_f32 | I64_reinterpret_f64
  | F32_reinterpret_i32 | F64_reinterpret_i64
  | I32_extend8_s | I32_extend16_s | I64_extend8_s | I64_extend16_s | I64_extend32_s

type blocktype = valtype option
(* MVP block types: at most one result. *)

type instr =
  | Unreachable
  | Nop
  | Block of blocktype * instr list
  | Loop of blocktype * instr list
  | If of blocktype * instr list * instr list
  | Br of int
  | Br_if of int
  | Br_table of int list * int
  | Return
  | Call of int
  | Call_indirect of int  (* type index *)
  | Drop
  | Select
  | Local_get of int
  | Local_set of int
  | Local_tee of int
  | Global_get of int
  | Global_set of int
  | I32_load of memarg | I64_load of memarg | F32_load of memarg | F64_load of memarg
  | I32_load8_s of memarg | I32_load8_u of memarg
  | I32_load16_s of memarg | I32_load16_u of memarg
  | I64_load8_s of memarg | I64_load8_u of memarg
  | I64_load16_s of memarg | I64_load16_u of memarg
  | I64_load32_s of memarg | I64_load32_u of memarg
  | I32_store of memarg | I64_store of memarg | F32_store of memarg | F64_store of memarg
  | I32_store8 of memarg | I32_store16 of memarg
  | I64_store8 of memarg | I64_store16 of memarg | I64_store32 of memarg
  | Memory_size
  | Memory_grow
  | I32_const of int32
  | I64_const of int64
  | F32_const of float
  | F64_const of float
  | I32_unop of iunop | I64_unop of iunop
  | I32_binop of ibinop | I64_binop of ibinop
  | I32_eqz | I64_eqz
  | I32_relop of irelop | I64_relop of irelop
  | F32_unop of funop | F64_unop of funop
  | F32_binop of fbinop | F64_binop of fbinop
  | F32_relop of frelop | F64_relop of frelop
  | Cvt of cvtop

(* Memory instructions: memarg, value type, natural alignment (log2 of
   the access width) and whether it stores. *)
let mem_access = function
  | I32_load m -> Some (m, I32, 2, false) | I64_load m -> Some (m, I64, 3, false)
  | F32_load m -> Some (m, F32, 2, false) | F64_load m -> Some (m, F64, 3, false)
  | I32_load8_s m | I32_load8_u m -> Some (m, I32, 0, false)
  | I32_load16_s m | I32_load16_u m -> Some (m, I32, 1, false)
  | I64_load8_s m | I64_load8_u m -> Some (m, I64, 0, false)
  | I64_load16_s m | I64_load16_u m -> Some (m, I64, 1, false)
  | I64_load32_s m | I64_load32_u m -> Some (m, I64, 2, false)
  | I32_store m -> Some (m, I32, 2, true) | I64_store m -> Some (m, I64, 3, true)
  | F32_store m -> Some (m, F32, 2, true) | F64_store m -> Some (m, F64, 3, true)
  | I32_store8 m -> Some (m, I32, 0, true) | I32_store16 m -> Some (m, I32, 1, true)
  | I64_store8 m -> Some (m, I64, 0, true) | I64_store16 m -> Some (m, I64, 1, true)
  | I64_store32 m -> Some (m, I64, 2, true)
  | _ -> None

(* Every instruction without immediates, with its text name and opcode,
   in opcode order; both codecs read it. *)
let simple_instrs =
  [ ("unreachable", Unreachable, 0x00); ("nop", Nop, 0x01); ("return", Return, 0x0f);
    ("drop", Drop, 0x1a); ("select", Select, 0x1b); ("memory.size", Memory_size, 0x3f);
    ("memory.grow", Memory_grow, 0x40); ("i32.eqz", I32_eqz, 0x45);
    ("i32.eq", I32_relop Eq, 0x46); ("i32.ne", I32_relop Ne, 0x47);
    ("i32.lt_s", I32_relop Lt_s, 0x48); ("i32.lt_u", I32_relop Lt_u, 0x49);
    ("i32.gt_s", I32_relop Gt_s, 0x4a); ("i32.gt_u", I32_relop Gt_u, 0x4b);
    ("i32.le_s", I32_relop Le_s, 0x4c); ("i32.le_u", I32_relop Le_u, 0x4d);
    ("i32.ge_s", I32_relop Ge_s, 0x4e); ("i32.ge_u", I32_relop Ge_u, 0x4f);
    ("i64.eqz", I64_eqz, 0x50); ("i64.eq", I64_relop Eq, 0x51); ("i64.ne", I64_relop Ne, 0x52);
    ("i64.lt_s", I64_relop Lt_s, 0x53); ("i64.lt_u", I64_relop Lt_u, 0x54);
    ("i64.gt_s", I64_relop Gt_s, 0x55); ("i64.gt_u", I64_relop Gt_u, 0x56);
    ("i64.le_s", I64_relop Le_s, 0x57); ("i64.le_u", I64_relop Le_u, 0x58);
    ("i64.ge_s", I64_relop Ge_s, 0x59); ("i64.ge_u", I64_relop Ge_u, 0x5a);
    ("f32.eq", F32_relop Feq, 0x5b); ("f32.ne", F32_relop Fne, 0x5c);
    ("f32.lt", F32_relop Flt, 0x5d); ("f32.gt", F32_relop Fgt, 0x5e);
    ("f32.le", F32_relop Fle, 0x5f); ("f32.ge", F32_relop Fge, 0x60);
    ("f64.eq", F64_relop Feq, 0x61); ("f64.ne", F64_relop Fne, 0x62);
    ("f64.lt", F64_relop Flt, 0x63); ("f64.gt", F64_relop Fgt, 0x64);
    ("f64.le", F64_relop Fle, 0x65); ("f64.ge", F64_relop Fge, 0x66);
    ("i32.clz", I32_unop Clz, 0x67); ("i32.ctz", I32_unop Ctz, 0x68);
    ("i32.popcnt", I32_unop Popcnt, 0x69); ("i32.add", I32_binop Add, 0x6a);
    ("i32.sub", I32_binop Sub, 0x6b); ("i32.mul", I32_binop Mul, 0x6c);
    ("i32.div_s", I32_binop Div_s, 0x6d); ("i32.div_u", I32_binop Div_u, 0x6e);
    ("i32.rem_s", I32_binop Rem_s, 0x6f); ("i32.rem_u", I32_binop Rem_u, 0x70);
    ("i32.and", I32_binop And, 0x71); ("i32.or", I32_binop Or, 0x72);
    ("i32.xor", I32_binop Xor, 0x73); ("i32.shl", I32_binop Shl, 0x74);
    ("i32.shr_s", I32_binop Shr_s, 0x75); ("i32.shr_u", I32_binop Shr_u, 0x76);
    ("i32.rotl", I32_binop Rotl, 0x77); ("i32.rotr", I32_binop Rotr, 0x78);
    ("i64.clz", I64_unop Clz, 0x79); ("i64.ctz", I64_unop Ctz, 0x7a);
    ("i64.popcnt", I64_unop Popcnt, 0x7b); ("i64.add", I64_binop Add, 0x7c);
    ("i64.sub", I64_binop Sub, 0x7d); ("i64.mul", I64_binop Mul, 0x7e);
    ("i64.div_s", I64_binop Div_s, 0x7f); ("i64.div_u", I64_binop Div_u, 0x80);
    ("i64.rem_s", I64_binop Rem_s, 0x81); ("i64.rem_u", I64_binop Rem_u, 0x82);
    ("i64.and", I64_binop And, 0x83); ("i64.or", I64_binop Or, 0x84);
    ("i64.xor", I64_binop Xor, 0x85); ("i64.shl", I64_binop Shl, 0x86);
    ("i64.shr_s", I64_binop Shr_s, 0x87); ("i64.shr_u", I64_binop Shr_u, 0x88);
    ("i64.rotl", I64_binop Rotl, 0x89); ("i64.rotr", I64_binop Rotr, 0x8a);
    ("f32.abs", F32_unop Abs, 0x8b); ("f32.neg", F32_unop Neg, 0x8c);
    ("f32.ceil", F32_unop Ceil, 0x8d); ("f32.floor", F32_unop Floor, 0x8e);
    ("f32.trunc", F32_unop Trunc, 0x8f); ("f32.nearest", F32_unop Nearest, 0x90);
    ("f32.sqrt", F32_unop Sqrt, 0x91); ("f32.add", F32_binop Fadd, 0x92);
    ("f32.sub", F32_binop Fsub, 0x93); ("f32.mul", F32_binop Fmul, 0x94);
    ("f32.div", F32_binop Fdiv, 0x95); ("f32.min", F32_binop Fmin, 0x96);
    ("f32.max", F32_binop Fmax, 0x97); ("f32.copysign", F32_binop Copysign, 0x98);
    ("f64.abs", F64_unop Abs, 0x99); ("f64.neg", F64_unop Neg, 0x9a);
    ("f64.ceil", F64_unop Ceil, 0x9b); ("f64.floor", F64_unop Floor, 0x9c);
    ("f64.trunc", F64_unop Trunc, 0x9d); ("f64.nearest", F64_unop Nearest, 0x9e);
    ("f64.sqrt", F64_unop Sqrt, 0x9f); ("f64.add", F64_binop Fadd, 0xa0);
    ("f64.sub", F64_binop Fsub, 0xa1); ("f64.mul", F64_binop Fmul, 0xa2);
    ("f64.div", F64_binop Fdiv, 0xa3); ("f64.min", F64_binop Fmin, 0xa4);
    ("f64.max", F64_binop Fmax, 0xa5); ("f64.copysign", F64_binop Copysign, 0xa6);
    ("i32.wrap_i64", Cvt I32_wrap_i64, 0xa7); ("i32.trunc_f32_s", Cvt I32_trunc_f32_s, 0xa8);
    ("i32.trunc_f32_u", Cvt I32_trunc_f32_u, 0xa9);
    ("i32.trunc_f64_s", Cvt I32_trunc_f64_s, 0xaa);
    ("i32.trunc_f64_u", Cvt I32_trunc_f64_u, 0xab);
    ("i64.extend_i32_s", Cvt I64_extend_i32_s, 0xac);
    ("i64.extend_i32_u", Cvt I64_extend_i32_u, 0xad);
    ("i64.trunc_f32_s", Cvt I64_trunc_f32_s, 0xae);
    ("i64.trunc_f32_u", Cvt I64_trunc_f32_u, 0xaf);
    ("i64.trunc_f64_s", Cvt I64_trunc_f64_s, 0xb0);
    ("i64.trunc_f64_u", Cvt I64_trunc_f64_u, 0xb1);
    ("f32.convert_i32_s", Cvt F32_convert_i32_s, 0xb2);
    ("f32.convert_i32_u", Cvt F32_convert_i32_u, 0xb3);
    ("f32.convert_i64_s", Cvt F32_convert_i64_s, 0xb4);
    ("f32.convert_i64_u", Cvt F32_convert_i64_u, 0xb5);
    ("f32.demote_f64", Cvt F32_demote_f64, 0xb6);
    ("f64.convert_i32_s", Cvt F64_convert_i32_s, 0xb7);
    ("f64.convert_i32_u", Cvt F64_convert_i32_u, 0xb8);
    ("f64.convert_i64_s", Cvt F64_convert_i64_s, 0xb9);
    ("f64.convert_i64_u", Cvt F64_convert_i64_u, 0xba);
    ("f64.promote_f32", Cvt F64_promote_f32, 0xbb);
    ("i32.reinterpret_f32", Cvt I32_reinterpret_f32, 0xbc);
    ("i64.reinterpret_f64", Cvt I64_reinterpret_f64, 0xbd);
    ("f32.reinterpret_i32", Cvt F32_reinterpret_i32, 0xbe);
    ("f64.reinterpret_i64", Cvt F64_reinterpret_i64, 0xbf);
    ("i32.extend8_s", Cvt I32_extend8_s, 0xc0); ("i32.extend16_s", Cvt I32_extend16_s, 0xc1);
    ("i64.extend8_s", Cvt I64_extend8_s, 0xc2); ("i64.extend16_s", Cvt I64_extend16_s, 0xc3);
    ("i64.extend32_s", Cvt I64_extend32_s, 0xc4) ]

(* The memory instructions with their text names, in opcode order from
   0x28. *)
let mem_instrs =
  [ ("i32.load", (fun m -> I32_load m)); ("i64.load", (fun m -> I64_load m));
    ("f32.load", (fun m -> F32_load m)); ("f64.load", (fun m -> F64_load m));
    ("i32.load8_s", (fun m -> I32_load8_s m)); ("i32.load8_u", (fun m -> I32_load8_u m));
    ("i32.load16_s", (fun m -> I32_load16_s m));
    ("i32.load16_u", (fun m -> I32_load16_u m)); ("i64.load8_s", (fun m -> I64_load8_s m));
    ("i64.load8_u", (fun m -> I64_load8_u m)); ("i64.load16_s", (fun m -> I64_load16_s m));
    ("i64.load16_u", (fun m -> I64_load16_u m));
    ("i64.load32_s", (fun m -> I64_load32_s m));
    ("i64.load32_u", (fun m -> I64_load32_u m)); ("i32.store", (fun m -> I32_store m));
    ("i64.store", (fun m -> I64_store m)); ("f32.store", (fun m -> F32_store m));
    ("f64.store", (fun m -> F64_store m)); ("i32.store8", (fun m -> I32_store8 m));
    ("i32.store16", (fun m -> I32_store16 m)); ("i64.store8", (fun m -> I64_store8 m));
    ("i64.store16", (fun m -> I64_store16 m)); ("i64.store32", (fun m -> I64_store32 m)) ]

type func = { ftype : int; locals : valtype list; body : instr list }

type import_desc =
  | Import_func of int  (* type index *)
  | Import_table of limits
  | Import_memory of limits
  | Import_global of globaltype

type import = { imp_module : string; imp_name : string; imp_desc : import_desc }

type export_desc = Export_func of int | Export_table of int | Export_memory of int | Export_global of int

type export = { exp_name : string; exp_desc : export_desc }

type global = { g_type : globaltype; g_init : instr list }

type elem = { e_offset : instr list; e_init : int list }

type data = { d_offset : instr list; d_init : string }

type module_ = {
  types : functype array;
  imports : import list;
  funcs : func array;  (* locally defined; indices follow imported funcs *)
  tables : limits option;
  memories : limits option;
  globals : global array;
  exports : export list;
  start : int option;
  elems : elem list;
  datas : data list;
  names : (int * string) list;
      (* debug names by function index (the "name" custom section),
         sorted by index; kept out of the semantic sections so codecs
         may drop it without changing behaviour *)
}

let empty_module =
  {
    types = [||];
    imports = [];
    funcs = [||];
    tables = None;
    memories = None;
    globals = [||];
    exports = [];
    start = None;
    elems = [];
    datas = [];
    names = [];
  }

(* Number of imported items of each kind, giving index bases. *)
let imported_funcs m =
  List.length
    (List.filter (fun i -> match i.imp_desc with Import_func _ -> true | _ -> false) m.imports)

let imported_globals m =
  List.length
    (List.filter (fun i -> match i.imp_desc with Import_global _ -> true | _ -> false) m.imports)

(* Symbolic name of a function by its (global) function index: the name
   custom section first, then an export name, then "module.name" for
   imports. Profilers and trap messages use this so output is readable
   whenever any symbol source survives in the module. *)
let func_name m idx =
  match List.assoc_opt idx m.names with
  | Some n -> Some n
  | None -> (
      match
        List.find_map
          (fun e ->
            match e.exp_desc with
            | Export_func i when i = idx -> Some e.exp_name
            | _ -> None)
          m.exports
      with
      | Some n -> Some n
      | None ->
          let rec nth_func_import k = function
            | [] -> None
            | ({ imp_desc = Import_func _; _ } as im) :: rest ->
                if k = 0 then Some (im.imp_module ^ "." ^ im.imp_name)
                else nth_func_import (k - 1) rest
            | _ :: rest -> nth_func_import k rest
          in
          if idx < imported_funcs m then nth_func_import idx m.imports else None)

(* Type index of a function by its (global) function index. *)
let func_type_idx m idx =
  let n_imp = imported_funcs m in
  if idx < n_imp then begin
    let rec nth_func_import k = function
      | [] -> invalid_arg "func_type_idx"
      | { imp_desc = Import_func ti; _ } :: rest ->
          if k = 0 then ti else nth_func_import (k - 1) rest
      | _ :: rest -> nth_func_import k rest
    in
    nth_func_import idx m.imports
  end
  else m.funcs.(idx - n_imp).ftype

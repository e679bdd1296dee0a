open Types
open Ast

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* Operand stack entries: None is the unknown type (after unreachable). *)
type opd = valtype option

type ctrl = {
  label_types : valtype list;  (* what a branch to this label carries *)
  end_types : valtype list;  (* what falls out at the end *)
  height : int;
  mutable unreachable : bool;
}

type ctx = {
  module_ : module_;
  mutable opds : opd list;
  mutable ctrls : ctrl list;
  locals : valtype array;
  n_funcs : int;
  n_globals : int;
  global_types : globaltype array;
  has_memory : bool;
  has_table : bool;
}

let push_opd ctx t = ctx.opds <- t :: ctx.opds

let pop_opd ctx =
  match ctx.ctrls with
  | [] -> fail "control stack empty"
  | frame :: _ ->
      if List.length ctx.opds = frame.height then
        if frame.unreachable then None else fail "type stack underflow"
      else begin
        match ctx.opds with
        | t :: rest ->
            ctx.opds <- rest;
            t
        | [] -> fail "type stack underflow"
      end

let pop_expect ctx expected =
  match pop_opd ctx with
  | None -> ()
  | Some t when t = expected -> ()
  | Some t ->
      fail "type mismatch: expected %s, got %s" (string_of_valtype expected)
        (string_of_valtype t)

let push_ctrl ctx ~label_types ~end_types =
  ctx.ctrls <-
    { label_types; end_types; height = List.length ctx.opds; unreachable = false }
    :: ctx.ctrls

let pop_ctrl ctx =
  match ctx.ctrls with
  | [] -> fail "control stack empty"
  | frame :: rest ->
      List.iter (fun t -> pop_expect ctx t) (List.rev frame.end_types);
      if List.length ctx.opds <> frame.height then fail "values left on stack at end of block";
      ctx.ctrls <- rest;
      frame

let set_unreachable ctx =
  match ctx.ctrls with
  | [] -> fail "control stack empty"
  | frame :: _ ->
      (* drop operands down to the frame height *)
      let rec drop l n = if n <= 0 then l else match l with _ :: r -> drop r (n - 1) | [] -> [] in
      ctx.opds <- drop ctx.opds (List.length ctx.opds - frame.height);
      frame.unreachable <- true

let label_types_at ctx k =
  match List.nth_opt ctx.ctrls k with
  | Some f -> f.label_types
  | None -> fail "branch depth %d out of range" k

let func_type_of ctx fidx =
  if fidx < 0 || fidx >= ctx.n_funcs then fail "function index %d out of range" fidx;
  ctx.module_.types.(func_type_idx ctx.module_ fidx)

let check_memarg ctx (m : memarg) max_align =
  if not ctx.has_memory then fail "memory instruction without memory";
  if m.align > max_align then fail "alignment must not exceed natural alignment"

let bt_types = function None -> [] | Some t -> [ t ]

let rec check_instr ctx (i : instr) =
  match i with
  | Unreachable -> set_unreachable ctx
  | Nop -> ()
  | Block (bt, body) ->
      push_ctrl ctx ~label_types:(bt_types bt) ~end_types:(bt_types bt);
      check_body ctx body;
      let f = pop_ctrl ctx in
      List.iter (fun t -> push_opd ctx (Some t)) f.end_types
  | Loop (bt, body) ->
      (* a loop's label receives no values (MVP: no block params) *)
      push_ctrl ctx ~label_types:[] ~end_types:(bt_types bt);
      check_body ctx body;
      let f = pop_ctrl ctx in
      List.iter (fun t -> push_opd ctx (Some t)) f.end_types
  | If (bt, then_, else_) ->
      pop_expect ctx I32;
      push_ctrl ctx ~label_types:(bt_types bt) ~end_types:(bt_types bt);
      check_body ctx then_;
      let f = pop_ctrl ctx in
      (* validate else with the same frame *)
      push_ctrl ctx ~label_types:f.label_types ~end_types:f.end_types;
      check_body ctx else_;
      let f = pop_ctrl ctx in
      List.iter (fun t -> push_opd ctx (Some t)) f.end_types
  | Br k ->
      let lts = label_types_at ctx k in
      List.iter (fun t -> pop_expect ctx t) (List.rev lts);
      set_unreachable ctx
  | Br_if k ->
      pop_expect ctx I32;
      let lts = label_types_at ctx k in
      List.iter (fun t -> pop_expect ctx t) (List.rev lts);
      List.iter (fun t -> push_opd ctx (Some t)) lts
  | Br_table (ks, d) ->
      pop_expect ctx I32;
      let dts = label_types_at ctx d in
      List.iter
        (fun k ->
          if label_types_at ctx k <> dts then fail "br_table: label arity mismatch")
        ks;
      List.iter (fun t -> pop_expect ctx t) (List.rev dts);
      set_unreachable ctx
  | Return ->
      (* the outermost frame's end_types are the function results *)
      let rec last = function [ f ] -> f | _ :: r -> last r | [] -> fail "no frame" in
      let f = last ctx.ctrls in
      List.iter (fun t -> pop_expect ctx t) (List.rev f.end_types);
      set_unreachable ctx
  | Call fidx ->
      let ft = func_type_of ctx fidx in
      List.iter (fun t -> pop_expect ctx t) (List.rev ft.params);
      List.iter (fun t -> push_opd ctx (Some t)) ft.results
  | Call_indirect ti ->
      if not ctx.has_table then fail "call_indirect without table";
      if ti < 0 || ti >= Array.length ctx.module_.types then fail "type index out of range";
      pop_expect ctx I32;
      let ft = ctx.module_.types.(ti) in
      List.iter (fun t -> pop_expect ctx t) (List.rev ft.params);
      List.iter (fun t -> push_opd ctx (Some t)) ft.results
  | Drop -> ignore (pop_opd ctx)
  | Select ->
      pop_expect ctx I32;
      let t1 = pop_opd ctx in
      let t2 = pop_opd ctx in
      (match (t1, t2) with
      | Some a, Some b when a <> b -> fail "select operands differ"
      | _ -> ());
      push_opd ctx (match t1 with Some _ -> t1 | None -> t2)
  | Local_get n -> push_opd ctx (Some (local_type ctx n))
  | Local_set n -> pop_expect ctx (local_type ctx n)
  | Local_tee n ->
      let t = local_type ctx n in
      pop_expect ctx t;
      push_opd ctx (Some t)
  | Global_get n -> push_opd ctx (Some (global_type ctx n).gt_val)
  | Global_set n ->
      let gt = global_type ctx n in
      if gt.gt_mut = Const then fail "global.set of immutable global";
      pop_expect ctx gt.gt_val
  | Memory_size ->
      if not ctx.has_memory then fail "memory.size without memory";
      push_opd ctx (Some I32)
  | Memory_grow ->
      if not ctx.has_memory then fail "memory.grow without memory";
      pop_expect ctx I32;
      push_opd ctx (Some I32)
  | I32_const _ -> push_opd ctx (Some I32)
  | I64_const _ -> push_opd ctx (Some I64)
  | F32_const _ -> push_opd ctx (Some F32)
  | F64_const _ -> push_opd ctx (Some F64)
  | i -> (
      match (Values.numeric_sig i, mem_access i) with
      | Some (args, r), _ ->
          List.iter (pop_expect ctx) (List.rev args);
          push_opd ctx (Some r)
      | None, Some (m, t, align, store) ->
          check_memarg ctx m align;
          if store then pop_expect ctx t;
          pop_expect ctx I32;
          if not store then push_opd ctx (Some t)
      | None, None -> fail "unsupported instruction")

and check_body ctx body = List.iter (check_instr ctx) body

and local_type ctx n =
  if n < 0 || n >= Array.length ctx.locals then fail "local index %d out of range" n;
  ctx.locals.(n)

and global_type ctx n =
  if n < 0 || n >= ctx.n_globals then fail "global index %d out of range" n;
  ctx.global_types.(n)

let check_const_expr m n_imported_globals expr expected =
  (match expr with
  | [ I32_const _ ] -> if expected <> I32 then fail "const type mismatch"
  | [ I64_const _ ] -> if expected <> I64 then fail "const type mismatch"
  | [ F32_const _ ] -> if expected <> F32 then fail "const type mismatch"
  | [ F64_const _ ] -> if expected <> F64 then fail "const type mismatch"
  | [ Global_get i ] ->
      if i >= n_imported_globals then fail "const global.get must reference an import"
  | _ -> fail "unsupported constant expression");
  ignore m

let global_types_of m =
  let imported =
    List.filter_map
      (fun i -> match i.imp_desc with Import_global gt -> Some gt | _ -> None)
      m.imports
  in
  Array.of_list (imported @ Array.to_list (Array.map (fun g -> g.g_type) m.globals))

let check_module (m : module_) =
  let n_imported_funcs = imported_funcs m in
  let n_funcs = n_imported_funcs + Array.length m.funcs in
  let n_imported_globals = imported_globals m in
  let global_types = global_types_of m in
  let has_memory =
    m.memories <> None
    || List.exists
         (fun i -> match i.imp_desc with Import_memory _ -> true | _ -> false)
         m.imports
  in
  let has_table =
    m.tables <> None
    || List.exists
         (fun i -> match i.imp_desc with Import_table _ -> true | _ -> false)
         m.imports
  in
  (* imports reference valid types *)
  List.iter
    (fun im ->
      match im.imp_desc with
      | Import_func ti ->
          if ti < 0 || ti >= Array.length m.types then fail "import type index out of range"
      | _ -> ())
    m.imports;
  (* globals *)
  Array.iter
    (fun g -> check_const_expr m n_imported_globals g.g_init g.g_type.gt_val)
    m.globals;
  (* exports reference valid indices, names unique *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.exp_name then fail "duplicate export %S" e.exp_name;
      Hashtbl.add seen e.exp_name ();
      match e.exp_desc with
      | Export_func i -> if i < 0 || i >= n_funcs then fail "export func index"
      | Export_global i ->
          if i < 0 || i >= Array.length global_types then fail "export global index"
      | Export_memory i -> if i <> 0 || not has_memory then fail "export memory index"
      | Export_table i -> if i <> 0 || not has_table then fail "export table index")
    m.exports;
  (* start function: [] -> [] *)
  (match m.start with
  | Some fidx ->
      if fidx < 0 || fidx >= n_funcs then fail "start index out of range";
      let ft = m.types.(func_type_idx m fidx) in
      if ft.params <> [] || ft.results <> [] then fail "start function must be [] -> []"
  | None -> ());
  (* element segments *)
  List.iter
    (fun e ->
      if not has_table then fail "elem without table";
      check_const_expr m n_imported_globals e.e_offset I32;
      List.iter (fun fidx -> if fidx < 0 || fidx >= n_funcs then fail "elem func index") e.e_init)
    m.elems;
  (* data segments *)
  List.iter
    (fun d ->
      if not has_memory then fail "data without memory";
      check_const_expr m n_imported_globals d.d_offset I32)
    m.datas;
  (* function bodies *)
  Array.iteri
    (fun i f ->
      if f.ftype < 0 || f.ftype >= Array.length m.types then
        fail "func %d: type index out of range" i;
      let ft = m.types.(f.ftype) in
      if List.length ft.results > 1 then fail "multi-value results unsupported";
      let ctx =
        {
          module_ = m;
          opds = [];
          ctrls = [];
          locals = Array.of_list (ft.params @ f.locals);
          n_funcs;
          n_globals = Array.length global_types;
          global_types;
          has_memory;
          has_table;
        }
      in
      push_ctrl ctx ~label_types:ft.results ~end_types:ft.results;
      (try check_body ctx f.body
       with Invalid msg -> fail "func %d: %s" i msg);
      (try ignore (pop_ctrl ctx)
       with Invalid msg -> fail "func %d (at end): %s" i msg))
    m.funcs

let is_valid m =
  try
    check_module m;
    true
  with Invalid _ -> false

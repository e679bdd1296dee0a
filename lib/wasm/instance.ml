(* Module instances: runtime structures, import resolution, and the
   constant-expression evaluation used for global/data/element offsets.
   Function invocation lives in [Interp] (and [Aot] for compiled code). *)

open Types
open Values
open Ast

exception Link_error of string

type t = {
  module_ : module_;
  mutable funcs : func_inst array;  (* imports first, then local functions *)
  table : int option array option;  (* entries are function indices *)
  memory : Memory.t option;
  globals : global_inst array;
  exports : (string, export_desc) Hashtbl.t;
  mutable fuel_used : int;  (* executed instruction counter (metering) *)
  mutable fuel_limit : int;
      (* trap deterministically once [fuel_used] exceeds this; [max_int]
         means unmetered. Both engines check at the same point, so the
         trapping fuel value is engine-independent. *)
  mutable hooks : hooks option;
      (* call-boundary observer (shadow call stack); [None] costs one
         branch per call *)
  mutable trap : (exn * string list) option;
      (* the latest trap out of this instance, with its guest frames *)
}

and func_inst =
  | Wasm of wasm_func
  | Host of functype * string * (value list -> value list)

and wasm_func = {
  w_type : functype;
  w_locals : valtype list;
  w_body : instr list;
  w_owner : t;
  w_index : int;  (* function index in the owner (for names/profiling) *)
  mutable w_compiled : (value list -> value list) option;  (* args -> results *)
}

(* Invoked by [Interp.call_func] around every Wasm-function activation,
   in both engines (compiled bodies are entered through the same path).
   [on_exit] also runs when the function unwinds with an exception, so
   the observer's shadow stack stays balanced across traps. Host
   functions get no events: their cost accrues to the calling frame. *)
and hooks = { on_enter : int -> unit; on_exit : int -> unit }

and global_inst = { g_mut : mut; mutable g_value : value }

type extern =
  | Extern_func of func_inst
  | Extern_memory of Memory.t
  | Extern_global of global_inst
  | Extern_table of int option array

type imports = (string * string * extern) list

let func_type = function Wasm w -> w.w_type | Host (ft, _, _) -> ft

let host_func ~name ftype f = Host (ftype, name, f)

(* Constant expressions: a single [t.const] or [global.get] of an import. *)
let eval_const globals = function
  | [ I32_const v ] -> I32 v
  | [ I64_const v ] -> I64 v
  | [ F32_const v ] -> F32 v
  | [ F64_const v ] -> F64 v
  | [ Global_get i ] ->
      if i >= Array.length globals then raise (Link_error "const global index");
      globals.(i).g_value
  | _ -> raise (Link_error "unsupported constant expression")

let lookup_import imports im =
  let found =
    List.find_opt (fun (m, n, _) -> m = im.imp_module && n = im.imp_name) imports
  in
  match found with
  | Some (_, _, e) -> e
  | None ->
      raise
        (Link_error (Printf.sprintf "unresolved import %s.%s" im.imp_module im.imp_name))

let build ?(imports : imports = []) (m : module_) =
  (* Resolve imports in declaration order. *)
  let imp_funcs = ref [] and imp_mem = ref None and imp_globals = ref [] in
  let imp_table = ref None in
  List.iter
    (fun im ->
      match (im.imp_desc, lookup_import imports im) with
      | Import_func ti, Extern_func f ->
          let expected = m.types.(ti) in
          if func_type f <> expected then
            raise
              (Link_error
                 (Printf.sprintf "import %s.%s: type mismatch (%s vs %s)" im.imp_module
                    im.imp_name
                    (string_of_functype (func_type f))
                    (string_of_functype expected)));
          imp_funcs := f :: !imp_funcs
      | Import_memory _, Extern_memory mem -> imp_mem := Some mem
      | Import_global gt, Extern_global g ->
          if gt.gt_mut <> g.g_mut then raise (Link_error "global mutability mismatch");
          imp_globals := g :: !imp_globals
      | Import_table _, Extern_table tbl -> imp_table := Some tbl
      | _ -> raise (Link_error "import kind mismatch"))
    m.imports;
  let imported_funcs = Array.of_list (List.rev !imp_funcs) in
  let imported_globals = Array.of_list (List.rev !imp_globals) in
  let memory =
    match (!imp_mem, m.memories) with
    | Some mem, _ -> Some mem
    | None, Some lim -> Some (Memory.create lim)
    | None, None -> None
  in
  let table =
    match (!imp_table, m.tables) with
    | Some tbl, _ -> Some tbl
    | None, Some lim -> Some (Array.make lim.min None)
    | None, None -> None
  in
  let globals =
    Array.append imported_globals
      (Array.map
         (fun (g : Ast.global) ->
           {
             g_mut = g.g_type.gt_mut;
             g_value = eval_const imported_globals g.g_init;
           })
         m.globals)
  in
  let exports = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace exports e.exp_name e.exp_desc) m.exports;
  let inst =
    {
      module_ = m;
      funcs = [||];
      table;
      memory;
      globals;
      exports;
      fuel_used = 0;
      fuel_limit = max_int;
      hooks = None;
      trap = None;
    }
  in
  let n_imported = Array.length imported_funcs in
  inst.funcs <-
    Array.append imported_funcs
      (Array.mapi
         (fun i (f : Ast.func) ->
           Wasm
             {
               w_type = m.types.(f.ftype);
               w_locals = f.locals;
               w_body = f.body;
               w_owner = inst;
               w_index = n_imported + i;
               w_compiled = None;
             })
         m.funcs);
  (* Data segments. *)
  List.iter
    (fun (d : Ast.data) ->
      match inst.memory with
      | None -> raise (Link_error "data segment without memory")
      | Some mem -> (
          match eval_const imported_globals d.d_offset with
          | I32 off ->
              let off = Int32.to_int off in
              if off < 0 || off + String.length d.d_init > Memory.size_bytes mem then
                raise (Link_error "data segment out of bounds");
              Memory.store_bytes mem off d.d_init
          | _ -> raise (Link_error "data offset must be i32")))
    m.datas;
  (* Element segments. *)
  List.iter
    (fun (e : Ast.elem) ->
      match inst.table with
      | None -> raise (Link_error "element segment without table")
      | Some tbl -> (
          match eval_const imported_globals e.e_offset with
          | I32 off ->
              let off = Int32.to_int off in
              if off < 0 || off + List.length e.e_init > Array.length tbl then
                raise (Link_error "element segment out of bounds");
              List.iteri (fun i fidx -> tbl.(off + i) <- Some fidx) e.e_init
          | _ -> raise (Link_error "element offset must be i32")))
    m.elems;
  inst

let export_func inst name =
  match Hashtbl.find_opt inst.exports name with
  | Some (Export_func i) -> Some inst.funcs.(i)
  | _ -> None

let export_memory inst name =
  match Hashtbl.find_opt inst.exports name with
  | Some (Export_memory _) -> inst.memory
  | _ -> None

let export_global inst name =
  match Hashtbl.find_opt inst.exports name with
  | Some (Export_global i) -> Some inst.globals.(i)
  | _ -> None

let memory_exn inst =
  match inst.memory with
  | Some m -> m
  | None -> trap "module has no memory"

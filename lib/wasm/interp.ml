(* Direct AST interpreter. Control flow uses exceptions: [Branch (k, vs)]
   unwinds k nested blocks carrying the branch operands, [Return_values]
   unwinds to the function frame. This mirrors the spec's label semantics
   for the MVP's single-result blocks. *)

open Values
open Ast
open Instance

exception Branch of int * value list
exception Return_values of value list

type frame = { locals : value array; inst : Instance.t }

(* Guest context of a trap, accumulated on the trapping function's
   instance as the [Trap] exception unwinds through [call_func] frames
   (innermost first). The exception itself is left untouched — its
   message is part of the engine's observable behaviour — so the
   backtrace rides out-of-band, keyed by physical identity of the
   exception value: a fresh trap replaces the recorded context, a
   re-raise extends it. *)
let max_trap_frames = 32

let frame_name (w : wasm_func) =
  match Ast.func_name w.w_owner.module_ w.w_index with
  | Some n -> n
  | None -> Printf.sprintf "func[%d]" w.w_index

let note_trap_frame (w : wasm_func) e =
  let inst = w.w_owner in
  match inst.trap with
  | Some (e', frames) when e' == e ->
      if List.length frames < max_trap_frames then
        inst.trap <- Some (e, frames @ [ frame_name w ])
  | _ -> inst.trap <- Some (e, [ frame_name w ])

let trap_backtrace (inst : Instance.t) e =
  match inst.trap with Some (e', frames) when e' == e -> frames | _ -> []

(* "message (in f)\n  called from g\n  ..." — or just the message when
   the trap carries no guest frames (e.g. a host-side trap). *)
let trap_message inst e =
  match e with
  | Values.Trap msg -> (
      match trap_backtrace inst e with
      | [] -> msg
      | f :: callers ->
          String.concat "\n"
            ((msg ^ " (in " ^ f ^ ")")
            :: List.map (fun g -> "  called from " ^ g) callers))
  | _ -> Printexc.to_string e

let pop = function v :: rest -> (v, rest) | [] -> trap "value stack underflow"

let pop_i32 stack =
  match pop stack with
  | I32 v, rest -> (v, rest)
  | v, _ -> trap "expected i32, got %s" (to_string v)

let effective_addr base (m : memarg) =
  (* Treat the i32 address as unsigned, as the spec requires. *)
  Int32.to_int (Int32.logand base 0xffffffffl) land 0xffffffff
  |> fun a -> a + m.offset

(* Loads and stores by instruction; the compiled tier shares the
   sub-word ones. *)
let[@inline] load (i : instr) mem a =
  match i with
  | I32_load _ -> I32 (Memory.load32 mem a)
  | I64_load _ -> I64 (Memory.load64 mem a)
  | F32_load _ -> F32 (Int32.float_of_bits (Memory.load32 mem a))
  | F64_load _ -> F64 (Int64.float_of_bits (Memory.load64 mem a))
  | I32_load8_s _ -> I32 (Memory.load8_s mem a)
  | I32_load8_u _ -> I32 (Memory.load8_u mem a)
  | I32_load16_s _ -> I32 (Memory.load16_s mem a)
  | I32_load16_u _ -> I32 (Memory.load16_u mem a)
  | I64_load8_s _ -> I64 (Int64.of_int32 (Memory.load8_s mem a))
  | I64_load8_u _ -> I64 (Int64.of_int32 (Memory.load8_u mem a))
  | I64_load16_s _ -> I64 (Int64.of_int32 (Memory.load16_s mem a))
  | I64_load16_u _ -> I64 (Int64.of_int32 (Memory.load16_u mem a))
  | I64_load32_s _ -> I64 (Int64.of_int32 (Memory.load32 mem a))
  | I64_load32_u _ -> I64 (Int64.logand (Int64.of_int32 (Memory.load32 mem a)) 0xffffffffL)
  | _ -> invalid_arg "Interp.load"

let[@inline] store (i : instr) mem a v =
  match (i, v) with
  | I32_store _, I32 v -> Memory.store32 mem a v
  | I64_store _, I64 v -> Memory.store64 mem a v
  | F32_store _, F32 v -> Memory.store32 mem a (Int32.bits_of_float v)
  | F64_store _, F64 v -> Memory.store64 mem a (Int64.bits_of_float v)
  | I32_store8 _, I32 v -> Memory.store8 mem a v
  | I32_store16 _, I32 v -> Memory.store16 mem a v
  | I64_store8 _, I64 v -> Memory.store8 mem a (Int64.to_int32 v)
  | I64_store16 _, I64 v -> Memory.store16 mem a (Int64.to_int32 v)
  | I64_store32 _, I64 v -> Memory.store32 mem a (Int64.to_int32 v)
  | _ -> trap "store: bad operands"

let rec exec_seq frame (instrs : instr list) stack =
  match instrs with
  | [] -> stack
  | i :: rest -> exec_seq frame rest (exec_instr frame i stack)

and exec_block frame body stack ~is_loop ~(bt : blocktype) =
  (* MVP labels: a block's label has the block's result arity (0 or 1); a
     loop's label has arity 0, and branching to it restarts the body with
     the block-entry stack. The branch carries the whole inner stack and
     the catcher keeps what its label needs. *)
  try exec_seq frame body stack with
  | Branch (0, vs) ->
      if is_loop then exec_block frame body stack ~is_loop ~bt
      else begin
        match bt with
        | None -> stack
        | Some _ -> (
            match vs with
            | v :: _ -> v :: stack
            | [] -> trap "branch carried no value for block result")
      end
  | Branch (k, vs) -> raise (Branch (k - 1, vs))

and exec_instr frame (i : instr) stack =
  let inst = frame.inst in
  inst.fuel_used <- inst.fuel_used + 1;
  if inst.fuel_used > inst.fuel_limit then trap "fuel exhausted";
  match i with
  | Unreachable -> trap "unreachable executed"
  | Nop -> stack
  | Block (bt, body) -> exec_block frame body stack ~is_loop:false ~bt
  | Loop (bt, body) -> exec_block frame body stack ~is_loop:true ~bt
  | If (bt, then_, else_) ->
      let c, stack = pop_i32 stack in
      let body = if c <> 0l then then_ else else_ in
      exec_block frame body stack ~is_loop:false ~bt
  | Br k ->
      (* the branch carries the whole stack; the catching label keeps what
         its arity needs *)
      raise (Branch (k, stack))
  | Br_if k ->
      let c, stack = pop_i32 stack in
      if c <> 0l then raise (Branch (k, stack)) else stack
  | Br_table (targets, default) ->
      let c, stack = pop_i32 stack in
      let idx = Int32.to_int c in
      let k =
        if idx >= 0 && idx < List.length targets then List.nth targets idx else default
      in
      raise (Branch (k, stack))
  | Return -> raise (Return_values stack)
  | Call fidx -> do_call frame inst.funcs.(fidx) stack
  | Call_indirect type_idx -> (
      let i, stack = pop_i32 stack in
      match inst.table with
      | None -> trap "call_indirect without table"
      | Some tbl ->
          let i = Int32.to_int i in
          if i < 0 || i >= Array.length tbl then trap "undefined element";
          (match tbl.(i) with
          | None -> trap "uninitialized element"
          | Some fidx ->
              let f = inst.funcs.(fidx) in
              let expected = inst.module_.types.(type_idx) in
              if func_type f <> expected then trap "indirect call type mismatch";
              do_call frame f stack))
  | Drop ->
      let _, stack = pop stack in
      stack
  | Select -> (
      let c, stack = pop_i32 stack in
      match stack with
      | b :: a :: rest -> (if c <> 0l then a else b) :: rest
      | _ -> trap "stack underflow in select")
  | Local_get n -> frame.locals.(n) :: stack
  | Local_set n ->
      let v, stack = pop stack in
      frame.locals.(n) <- v;
      stack
  | Local_tee n -> (
      match stack with
      | v :: _ ->
          frame.locals.(n) <- v;
          stack
      | [] -> trap "stack underflow in local.tee")
  | Global_get n -> inst.globals.(n).g_value :: stack
  | Global_set n ->
      let v, stack = pop stack in
      let g = inst.globals.(n) in
      if g.g_mut = Types.Const then trap "assignment to immutable global";
      g.g_value <- v;
      stack
  | I32_load m | I64_load m | F32_load m | F64_load m | I32_load8_s m | I32_load8_u m
  | I32_load16_s m | I32_load16_u m | I64_load8_s m | I64_load8_u m | I64_load16_s m
  | I64_load16_u m | I64_load32_s m | I64_load32_u m ->
      let a, stack = pop_i32 stack in
      load i (memory_exn inst) (effective_addr a m) :: stack
  | I32_store m | I64_store m | F32_store m | F64_store m | I32_store8 m | I32_store16 m
  | I64_store8 m | I64_store16 m | I64_store32 m -> (
      match stack with
      | v :: I32 a :: rest ->
          store i (memory_exn inst) (effective_addr a m) v;
          rest
      | _ -> trap "store: bad operands")
  | Memory_size -> I32 (Int32.of_int (Memory.size_pages (memory_exn inst))) :: stack
  | Memory_grow ->
      let delta, stack = pop_i32 stack in
      I32 (Memory.grow (memory_exn inst) (Int32.to_int delta)) :: stack
  | I32_const v -> I32 v :: stack
  | I64_const v -> I64 v :: stack
  | F32_const v -> F32 v :: stack
  | F64_const v -> F64 v :: stack
  | I32_binop op -> (
      match stack with
      | I32 b :: I32 a :: rest -> I32 (eval_i32_binop op a b) :: rest
      | _ -> trap "i32 binop: bad operands")
  | I32_relop op -> (
      match stack with
      | I32 b :: I32 a :: rest -> I32 (eval_i32_relop op a b) :: rest
      | _ -> trap "i32 relop: bad operands")
  | F64_unop op -> (
      match stack with
      | F64 v :: rest -> F64 (eval_f_unop op v) :: rest
      | _ -> trap "f64 unop: bad operand")
  | F64_binop op -> (
      match stack with
      | F64 b :: F64 a :: rest -> F64 (eval_f_binop op a b) :: rest
      | _ -> trap "f64 binop: bad operands")
  | F64_relop op -> (
      match stack with
      | F64 b :: F64 a :: rest -> I32 (eval_f_relop op a b) :: rest
      | _ -> trap "f64 relop: bad operands")
  | Cvt op ->
      let v, stack = pop stack in
      eval_cvt op v :: stack
  | I32_unop _ | I64_unop _ | I32_eqz | I64_eqz | F32_unop _ -> (
      match stack with
      | v :: rest -> eval_unary i v :: rest
      | [] -> trap "value stack underflow")
  | I64_binop _ | I64_relop _ | F32_binop _ | F32_relop _ -> (
      match stack with
      | b :: a :: rest -> eval_binary i a b :: rest
      | _ -> trap "value stack underflow")

and do_call _frame f stack =
  let ft = func_type f in
  let n_args = List.length ft.params in
  let rec split n acc rest =
    if n = 0 then (acc, rest)
    else
      match rest with
      | v :: tl -> split (n - 1) (v :: acc) tl
      | [] -> trap "stack underflow at call"
  in
  let args, stack = split n_args [] stack in
  let results = call_func f args in
  List.rev_append (List.rev results) stack

and call_func f args =
  match f with
  | Host (_, _, h) -> h args
  | Wasm w -> (
      match w.w_owner.hooks with
      | None -> (
          try exec_wasm w args
          with Values.Trap _ as e ->
            note_trap_frame w e;
            raise e)
      | Some h -> (
          h.on_enter w.w_index;
          match exec_wasm w args with
          | results ->
              h.on_exit w.w_index;
              results
          | exception e ->
              h.on_exit w.w_index;
              (match e with Values.Trap _ -> note_trap_frame w e | _ -> ());
              raise e))

(* The single activation path for Wasm functions: compiled body when the
   AoT engine installed one, AST walk otherwise. Every call in either
   engine funnels through [call_func] above, which is why one hook site
   covers both. *)
and exec_wasm w args =
  match w.w_compiled with
  | Some compiled -> compiled args
  | None ->
      let locals = make_locals w args in
      let frame = { locals; inst = w.w_owner } in
      let stack =
        try exec_seq frame w.w_body []
        with
        | Return_values s -> s
        | Branch (_, vs) -> vs
      in
      take_results w.w_type.results stack

and make_locals w args =
  let n_params = List.length w.w_type.params in
  let locals =
    Array.make (n_params + List.length w.w_locals) (I32 0l)
  in
  List.iteri (fun i v -> locals.(i) <- v) args;
  List.iteri (fun i vt -> locals.(n_params + i) <- default_value vt) w.w_locals;
  locals

and take_results results stack =
  let n = List.length results in
  let rec take k acc s =
    if k = 0 then acc
    else
      match s with
      | v :: rest -> take (k - 1) (v :: acc) rest
      | [] -> trap "missing results"
  in
  take n [] stack

let call inst fidx args = call_func inst.funcs.(fidx) args

let invoke inst name args =
  match export_func inst name with
  | Some f -> call_func f args
  | None -> trap "unknown export %s" name

let instantiate ?imports m =
  let inst = build ?imports m in
  (match m.start with Some fidx -> ignore (call inst fidx []) | None -> ());
  inst

let fuel_used inst = inst.fuel_used

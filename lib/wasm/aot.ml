(* Ahead-of-time compilation into register form (wamrc's role in the
   paper, in the style of WAMR's fast interpreter). Each function compiles
   in one pass to a flat array of closures over one [Bytes] frame: a
   closure reads and writes 8-byte slots at fixed offsets and returns the
   next pc (-1 leaves). The frame holds the locals, one slot per stack
   height, then the constants; an i32 uses a slot's low half, and f32/f64
   slots hold the OCaml float's bits, as [Values.F32] does. [local.get]
   and constants push a reference to their slot; a reference to local n
   is copied home before n is written, and every local reference at
   block, loop and if entry, so all edges into a label agree.

   Fuel is charged once per straight-line block, on entry. Blocks start at
   labels and end at every branch and call, so call hooks and host
   functions read the interpreter's exact count. A trap refunds the
   block's instructions that did not run; a block that would cross the
   limit runs its prefix op by op and traps where the interpreter would.
   The pass tracks types itself ([Validate.Invalid] on an ill-typed body)
   and skips code after an unconditional branch. Calls go through
   [Interp.call_func] (hooks, trap frames, host functions). *)

open Values
open Ast
open Instance
module T = Types

type code = Bytes.t -> int

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] getf fr o = Int64.float_of_bits (get64 fr o)
let[@inline] setf fr o x = set64 fr o (Int64.bits_of_float x)
let[@inline] b2i c = if c then 1l else 0l
let[@inline] u32 x = Int32.logxor x Int32.min_int
let[@inline] sh fr b = Int32.to_int (get32 fr b) land 31
let[@inline] addr fr a off = (Int32.to_int (get32 fr a) land 0xffffffff) + off
let invalid fmt = Printf.ksprintf (fun s -> raise (Validate.Invalid s)) fmt

let read ty fr o =
  match ty with
  | T.I32 -> I32 (get32 fr o)
  | T.I64 -> I64 (get64 fr o)
  | T.F32 -> F32 (getf fr o)
  | T.F64 -> F64 (getf fr o)

let write fr o = function
  | I32 v -> set32 fr o v
  | I64 v -> set64 fr o v
  | F32 x | F64 x -> setf fr o x

(* Numeric closures over resolved offsets (operands a, b; result d). The
   common operators are specialised; the rest box through [Values]. *)
let binary (i : instr) t a b d nx : code =
  let open Int32 in
  match i with
  | I32_binop Add -> fun fr -> set32 fr d (add (get32 fr a) (get32 fr b)); nx
  | I32_binop Sub -> fun fr -> set32 fr d (sub (get32 fr a) (get32 fr b)); nx
  | I32_binop Mul -> fun fr -> set32 fr d (mul (get32 fr a) (get32 fr b)); nx
  | I32_binop And -> fun fr -> set32 fr d (logand (get32 fr a) (get32 fr b)); nx
  | I32_binop Or -> fun fr -> set32 fr d (logor (get32 fr a) (get32 fr b)); nx
  | I32_binop Xor -> fun fr -> set32 fr d (logxor (get32 fr a) (get32 fr b)); nx
  | I32_binop Shl -> fun fr -> set32 fr d (shift_left (get32 fr a) (sh fr b)); nx
  | I32_binop Shr_s -> fun fr -> set32 fr d (shift_right (get32 fr a) (sh fr b)); nx
  | I32_binop Shr_u -> fun fr -> set32 fr d (shift_right_logical (get32 fr a) (sh fr b)); nx
  | I32_binop Rem_s ->
      fun fr ->
        let y = get32 fr b in
        if y = 0l then trap "integer divide by zero";
        set32 fr d (rem (get32 fr a) y);
        nx
  | I32_relop Eq -> fun fr -> set32 fr d (b2i (get32 fr a = get32 fr b)); nx
  | I32_relop Ne -> fun fr -> set32 fr d (b2i (get32 fr a <> get32 fr b)); nx
  | I32_relop Lt_s -> fun fr -> set32 fr d (b2i (get32 fr a < get32 fr b)); nx
  | I32_relop Gt_s -> fun fr -> set32 fr d (b2i (get32 fr a > get32 fr b)); nx
  | I32_relop Le_s -> fun fr -> set32 fr d (b2i (get32 fr a <= get32 fr b)); nx
  | I32_relop Ge_s -> fun fr -> set32 fr d (b2i (get32 fr a >= get32 fr b)); nx
  | I32_relop Lt_u -> fun fr -> set32 fr d (b2i (u32 (get32 fr a) < u32 (get32 fr b))); nx
  | I32_relop Gt_u -> fun fr -> set32 fr d (b2i (u32 (get32 fr a) > u32 (get32 fr b))); nx
  | I32_relop Le_u -> fun fr -> set32 fr d (b2i (u32 (get32 fr a) <= u32 (get32 fr b))); nx
  | I32_relop Ge_u -> fun fr -> set32 fr d (b2i (u32 (get32 fr a) >= u32 (get32 fr b))); nx
  | I64_binop Add -> fun fr -> set64 fr d (Int64.add (get64 fr a) (get64 fr b)); nx
  | I64_binop Sub -> fun fr -> set64 fr d (Int64.sub (get64 fr a) (get64 fr b)); nx
  | I64_binop Mul -> fun fr -> set64 fr d (Int64.mul (get64 fr a) (get64 fr b)); nx
  | F64_binop Fadd -> fun fr -> setf fr d (getf fr a +. getf fr b); nx
  | F64_binop Fsub -> fun fr -> setf fr d (getf fr a -. getf fr b); nx
  | F64_binop Fmul -> fun fr -> setf fr d (getf fr a *. getf fr b); nx
  | F64_binop Fdiv -> fun fr -> setf fr d (getf fr a /. getf fr b); nx
  | F64_binop op -> fun fr -> setf fr d (eval_f_binop op (getf fr a) (getf fr b)); nx
  | F32_relop Feq | F64_relop Feq -> fun fr -> set32 fr d (b2i (getf fr a = getf fr b)); nx
  | F32_relop Fne | F64_relop Fne -> fun fr -> set32 fr d (b2i (getf fr a <> getf fr b)); nx
  | F32_relop Flt | F64_relop Flt -> fun fr -> set32 fr d (b2i (getf fr a < getf fr b)); nx
  | F32_relop Fgt | F64_relop Fgt -> fun fr -> set32 fr d (b2i (getf fr a > getf fr b)); nx
  | F32_relop Fle | F64_relop Fle -> fun fr -> set32 fr d (b2i (getf fr a <= getf fr b)); nx
  | F32_relop Fge | F64_relop Fge -> fun fr -> set32 fr d (b2i (getf fr a >= getf fr b)); nx
  | _ -> fun fr -> write fr d (eval_binary i (read t fr a) (read t fr b)); nx

let unary (i : instr) t a d nx : code =
  match i with
  | I32_eqz -> fun fr -> set32 fr d (b2i (get32 fr a = 0l)); nx
  | F64_unop Neg -> fun fr -> setf fr d (-.getf fr a); nx
  | F64_unop Abs -> fun fr -> setf fr d (Float.abs (getf fr a)); nx
  | F64_unop Sqrt -> fun fr -> setf fr d (Float.sqrt (getf fr a)); nx
  | Cvt F64_convert_i32_s -> fun fr -> setf fr d (Int32.to_float (get32 fr a)); nx
  | Cvt I32_wrap_i64 -> fun fr -> set32 fr d (Int64.to_int32 (get64 fr a)); nx
  | Cvt I64_extend_i32_s -> fun fr -> set64 fr d (Int64.of_int32 (get32 fr a)); nx
  | Cvt (F64_promote_f32 | I64_reinterpret_f64 | F64_reinterpret_i64) ->
      fun fr -> set64 fr d (get64 fr a); nx
  | _ -> fun fr -> write fr d (eval_unary i (read t fr a)); nx

(* --- running: fuel and the dispatch loop --- *)

type prog = { mutable code : code array; mutable refund : int array }

(* A closure's refund counts its block's instructions after the one it
   implements, so [n - refund] is that instruction's rank in the block. *)
let exhaust inst n prog p fr =
  let start = inst.fuel_used in
  let rec go p =
    let rank = n - prog.refund.(p) in
    if start + rank <= inst.fuel_limit then begin
      inst.fuel_used <- start + rank;
      ignore (prog.code.(p) fr);
      go (p + 1)
    end
  in
  go p;
  inst.fuel_used <- inst.fuel_limit + 1;
  trap "fuel exhausted"

let charge inst n prog nx : code =
  if n = 0 then fun _ -> nx
  else fun fr ->
    let f = inst.fuel_used + n in
    if f > inst.fuel_limit then exhaust inst n prog nx fr
    else begin
      inst.fuel_used <- f;
      nx
    end

let exec inst prog fr =
  let code = prog.code and pc = ref 0 in
  try
    while !pc >= 0 do
      pc := (Array.unsafe_get code !pc) fr
    done
  with e ->
    inst.fuel_used <- inst.fuel_used - prog.refund.(!pc);
    raise e

(* --- the compile pass --- *)

(* Slot ids: locals 0..nl-1, the stack slot of height h is nl+h, and
   constant k is -1-k. Offsets are resolved once the frame is sized. *)
type entry = { ty : T.valtype; home : int; mutable src : int }
type fblock = { mutable n : int }  (* instructions the block charges *)

type label = {
  height : int;
  carries : T.valtype option;  (* what a branch to it copies home *)
  mutable target : int;
  mutable used : bool;
}

type st = {
  inst : Instance.t;
  locals : T.valtype array;
  nl : int;
  prog : prog;
  consts : (int64, int) Hashtbl.t;
  mutable stack : entry list;
  mutable height : int;
  mutable max_h : int;
  mutable labels : label list;
  mutable out : (((int -> int) -> int -> code) * fblock * int) list;  (* reversed *)
  mutable pc : int;
  mutable fb : fblock;
  mutable fresh : bool;  (* the next instruction starts a fuel block *)
}

let no_block = { n = 0 }

let push_code st fb rank mk =
  st.out <- (mk, fb, rank) :: st.out;
  st.pc <- st.pc + 1

let start_block st =
  let fb = { n = 0 } and inst = st.inst and prog = st.prog in
  st.fb <- fb;
  st.fresh <- false;
  push_code st no_block 0 (fun _ nx -> charge inst fb.n prog nx)

let emit st mk =
  if st.fresh then start_block st;
  push_code st st.fb st.fb.n mk

let copy st s d =
  if s <> d then
    emit st (fun o nx -> let s = o s and d = o d in fun fr -> set64 fr d (get64 fr s); nx)

let push_ref st ty src =
  let home = st.nl + st.height in
  st.stack <- { ty; home; src = (if src = max_int then home else src) } :: st.stack;
  st.height <- st.height + 1;
  st.max_h <- max st.max_h st.height;
  home

let push st ty = push_ref st ty max_int
let floor st = match st.labels with l :: _ -> l.height | [] -> 0

let top st =
  match st.stack with
  | e :: _ when st.height > floor st -> e
  | _ -> invalid "type stack underflow"

let check_ty t e =
  if e.ty <> t then
    invalid "type mismatch: expected %s, got %s" (T.string_of_valtype t)
      (T.string_of_valtype e.ty)

let pop_entry st =
  let e = top st in
  st.stack <- List.tl st.stack;
  st.height <- st.height - 1;
  e

let pop st t =
  let e = pop_entry st in
  check_ty t e;
  e.src

let settle st pred =
  List.iter
    (fun e ->
      if e.src <> e.home && pred e.src then begin
        copy st e.src e.home;
        e.src <- e.home
      end)
    st.stack

let settle_locals st = settle st (fun s -> s >= 0 && s < st.nl)

let const st ty bits =
  let n = Hashtbl.length st.consts in
  let k = Option.value (Hashtbl.find_opt st.consts bits) ~default:n in
  if k = n then Hashtbl.add st.consts bits k;
  ignore (push_ref st ty (-1 - k))

let memory st =
  match st.inst.memory with Some m -> m | None -> invalid "memory instruction without memory"

let load st t (m : memarg) kind =
  let mem = memory st and off = m.offset in
  let a = pop st T.I32 in
  let d = push st t in
  emit st (fun o nx ->
      let a = o a and d = o d in
      match kind with
      | `W32 -> fun fr -> Memory.load32_to mem (addr fr a off) fr d; nx
      | `W64 -> fun fr -> Memory.load64_to mem (addr fr a off) fr d; nx
      | `F32 ->
          fun fr ->
            Memory.load32_to mem (addr fr a off) fr d;
            setf fr d (Int32.float_of_bits (get32 fr d));
            nx
      | `Narrow i -> fun fr -> write fr d (Interp.load i mem (addr fr a off)); nx);
  true

let store st t (m : memarg) kind =
  let mem = memory st and off = m.offset in
  let v = pop_entry st in
  check_ty t v;
  let a = pop st T.I32 in
  emit st (fun o nx ->
      let a = o a and s = o v.src and h = o v.home in
      match kind with
      | `W32 -> fun fr -> Memory.store32_from mem (addr fr a off) fr s; nx
      | `W64 -> fun fr -> Memory.store64_from mem (addr fr a off) fr s; nx
      | `F32 ->
          (* the operand's own stack slot is free: stage the f32 bits there *)
          fun fr ->
            set32 fr h (Int32.bits_of_float (getf fr s));
            Memory.store32_from mem (addr fr a off) fr h;
            nx
      | `Narrow i -> fun fr -> Interp.store i mem (addr fr a off) (read t fr s); nx);
  true

let local st n =
  if n < 0 || n >= st.nl then invalid "local index %d out of range" n;
  st.locals.(n)

let global st n =
  if n < 0 || n >= Array.length st.inst.globals then invalid "global index %d out of range" n;
  st.inst.globals.(n)

let label_at st k =
  match List.nth_opt st.labels k with Some l -> l | None -> invalid "branch depth %d out of range" k

(* The slot a branch to [l] copies from, and the one it copies to. *)
let carry st l =
  l.used <- true;
  match l.carries with
  | None -> (0, 0)
  | Some t ->
      let e = top st in
      check_ty t e;
      (e.src, st.nl + l.height)

let jump st l =
  let s, d = carry st l in
  emit st (fun o _ ->
      let s = o s and d = o d and pc = l.target in
      if s = d then fun _ -> pc else fun fr -> set64 fr d (get64 fr s); pc);
  false

(* [resolve fr i] finds the callee, [i] being the offset of an indirect
   call's table index. Arguments and the result cross boxed. *)
let call st ft ~indirect resolve =
  let idx = if indirect then pop st T.I32 else 0 in
  let srcs = List.fold_left (fun acc t -> pop st t :: acc) [] (List.rev ft.T.params) in
  let d = match ft.T.results with [ t ] -> push st t | _ -> -1 in
  emit st (fun o nx ->
      let args = List.map2 (fun t s -> (t, o s)) ft.T.params srcs in
      let idx = o idx and d = if d < 0 then d else o d in
      fun fr ->
        let f = resolve fr idx in
        (match Interp.call_func f (List.map (fun (t, s) -> read t fr s) args) with
        | v :: _ when d >= 0 -> write fr d v
        | _ -> ());
        nx);
  st.fresh <- true;
  true

(* Compiles one instruction; false when the code after it is dead. *)
let rec instr st (i : instr) =
  if st.fresh then start_block st;
  st.fb.n <- st.fb.n + 1;
  match i with
  | Unreachable ->
      emit st (fun _ _ _ -> trap "unreachable executed");
      false
  | Nop -> true
  | Block (bt, body) ->
      settle_locals st;
      let l = { height = st.height; carries = bt; target = 0; used = false } in
      let saved = st.stack in
      ignore (arm st l bt body);
      l.target <- st.pc;
      if l.used then st.fresh <- true;
      finish st saved l.height bt
  | Loop (bt, body) ->
      settle_locals st;
      st.fresh <- true;
      let l = { height = st.height; carries = None; target = st.pc; used = true } in
      let saved = st.stack in
      ignore (arm st l bt body);
      finish st saved l.height bt
  | If (bt, then_, else_) ->
      let c = pop st T.I32 in
      let l = { height = st.height; carries = bt; target = 0; used = true } and els = ref 0 in
      settle_locals st;
      emit st (fun o nx ->
          let c = o c and e = !els in
          fun fr -> if get32 fr c <> 0l then nx else e);
      st.fresh <- true;
      let saved = st.stack in
      if arm st l bt then_ && else_ <> [] then ignore (jump st l);
      els := st.pc;
      st.fresh <- true;
      st.stack <- saved;
      st.height <- l.height;
      ignore (arm st l bt else_);
      l.target <- st.pc;
      st.fresh <- true;
      finish st saved l.height bt
  | Br k -> jump st (label_at st k)
  | Br_if k ->
      let c = pop st T.I32 in
      let l = label_at st k in
      let s, d = carry st l in
      emit st (fun o nx ->
          let c = o c and s = o s and d = o d and pc = l.target in
          fun fr ->
            if get32 fr c = 0l then nx
            else begin
              if s <> d then set64 fr d (get64 fr s);
              pc
            end);
      st.fresh <- true;
      true
  | Br_table (ks, k) ->
      let c = pop st T.I32 in
      let dl = label_at st k and ls = Array.of_list (List.map (label_at st) ks) in
      Array.iter
        (fun l -> if l.carries <> dl.carries then invalid "br_table: label arity mismatch") ls;
      let s, _ = carry st dl in
      Array.iter (fun l -> ignore (carry st l)) ls;
      emit st (fun o _ ->
          let c = o c and s = o s and n = Int32.of_int (Array.length ls) in
          let dst (l : label) =
            ((if dl.carries = None then s else o (st.nl + l.height)), l.target) in
          let tbl = Array.map dst ls and dflt = dst dl in
          fun fr ->
            let i = get32 fr c in
            let d, pc = if i >= 0l && i < n then tbl.(Int32.to_int i) else dflt in
            set64 fr d (get64 fr s);
            pc);
      false
  | Return -> jump st (List.nth st.labels (List.length st.labels - 1))
  | Call fidx ->
      if fidx < 0 || fidx >= Array.length st.inst.funcs then
        invalid "function index %d out of range" fidx;
      let f = st.inst.funcs.(fidx) in
      call st (func_type f) ~indirect:false (fun _ _ -> f)
  | Call_indirect ti ->
      let inst = st.inst in
      if ti < 0 || ti >= Array.length inst.module_.types then invalid "type index out of range";
      let expected = inst.module_.types.(ti) in
      let tbl = match inst.table with Some t -> t | None -> invalid "call_indirect without table" in
      call st expected ~indirect:true (fun fr i ->
          let i = Int32.to_int (get32 fr i) in
          if i < 0 || i >= Array.length tbl then trap "undefined element";
          match tbl.(i) with
          | None -> trap "uninitialized element"
          | Some fidx ->
              let f = inst.funcs.(fidx) in
              if func_type f <> expected then trap "indirect call type mismatch";
              f)
  | Drop ->
      ignore (pop_entry st);
      true
  | Select ->
      let c = pop st T.I32 in
      let b = pop_entry st in
      let a = pop_entry st in
      check_ty a.ty b;
      let d = push st a.ty in
      emit st (fun o nx ->
          let c = o c and a = o a.src and b = o b.src and d = o d in
          fun fr -> set64 fr d (get64 fr (if get32 fr c <> 0l then a else b)); nx);
      true
  | Local_get n ->
      ignore (push_ref st (local st n) n);
      true
  | Local_set n | Local_tee n ->
      let e = top st in
      check_ty (local st n) e;
      if e.src <> n then begin
        settle st (fun s -> s = n);
        copy st e.src n
      end;
      (match i with Local_set _ -> ignore (pop_entry st) | _ -> ());
      true
  | Global_get n ->
      let g = global st n in
      let d = push st (type_of g.g_value) in
      emit st (fun o nx -> let d = o d in fun fr -> write fr d g.g_value; nx);
      true
  | Global_set n ->
      let g = global st n in
      if g.g_mut = T.Const then invalid "global.set of immutable global";
      let ty = type_of g.g_value in
      let s = pop st ty in
      emit st (fun o nx -> let s = o s in fun fr -> g.g_value <- read ty fr s; nx);
      true
  | Memory_size ->
      let mem = memory st in
      let d = push st T.I32 in
      emit st (fun o nx ->
          let d = o d in
          fun fr -> set32 fr d (Int32.of_int (Memory.size_pages mem)); nx);
      true
  | Memory_grow ->
      let mem = memory st in
      let a = pop st T.I32 in
      let d = push st T.I32 in
      emit st (fun o nx ->
          let a = o a and d = o d in
          fun fr -> set32 fr d (Memory.grow mem (Int32.to_int (get32 fr a))); nx);
      true
  | I32_const v -> const st T.I32 (Int64.of_int32 v); true
  | I64_const v -> const st T.I64 v; true
  | F32_const x -> const st T.F32 (Int64.bits_of_float x); true
  | F64_const x -> const st T.F64 (Int64.bits_of_float x); true
  | i -> (
      match (numeric_sig i, mem_access i) with
      | None, Some (m, t, align, is_store) ->
          let kind =
            match (t, align) with
            | T.F32, _ -> `F32 | T.I32, 2 -> `W32 | _, 3 -> `W64 | _ -> `Narrow i
          in
          if is_store then store st t m kind else load st t m kind
      | Some ([ t ], r), _ ->
          let a = pop st t in
          let d = push st r in
          emit st (fun o nx -> unary i t (o a) (o d) nx);
          true
      | Some ([ t; _ ], r), _ ->
          let b = pop st t in
          let a = pop st t in
          let d = push st r in
          emit st (fun o nx -> binary i t (o a) (o b) (o d) nx);
          true
      | _ -> invalid "unsupported instruction")

(* A body under label [l]; its fall-through result is copied home.
   Returns whether its end is reachable. *)
and arm st l bt body =
  st.labels <- l :: st.labels;
  let rec seq = function [] -> true | i :: rest -> instr st i && seq rest in
  let live = seq body in
  if not live then st.fresh <- true
  else begin
    match (bt, st.stack) with
    | Some t, e :: _ when st.height = l.height + 1 ->
        check_ty t e;
        copy st e.src e.home;
        e.src <- e.home
    | None, _ when st.height = l.height -> ()
    | _ -> invalid "values left on stack at end of block"
  end;
  st.labels <- List.tl st.labels;
  live

and finish st saved height bt =
  st.stack <- saved;
  st.height <- height;
  Option.iter (fun t -> ignore (push st t)) bt;
  true

let compile_func inst (w : wasm_func) =
  let ft = w.w_type in
  let result =
    match ft.results with
    | [] -> None
    | [ t ] -> Some t
    | _ -> invalid "func %d: multi-value results unsupported" w.w_index
  in
  let locals = Array.of_list (ft.params @ w.w_locals) in
  let nl = Array.length locals and prog = { code = [||]; refund = [||] } in
  let st =
    { inst; locals; nl; prog; consts = Hashtbl.create 16; stack = []; height = 0; max_h = 0;
      labels = []; out = []; pc = 0; fb = no_block; fresh = true }
  in
  let fl = { height = 0; carries = result; target = -1; used = false } in
  (try ignore (arm st fl result w.w_body)
   with Validate.Invalid msg -> invalid "func %d: %s" w.w_index msg);
  push_code st no_block 0 (fun _ _ _ -> -1);
  let slots = nl + st.max_h in
  let o s = 8 * if s >= 0 then s else slots - 1 - s in
  prog.code <- Array.make st.pc (fun _ -> -1);
  prog.refund <- Array.make st.pc 0;
  List.iteri
    (fun i (mk, fb, rank) ->
      let pc = st.pc - 1 - i in
      prog.code.(pc) <- mk o (pc + 1);
      prog.refund.(pc) <- fb.n - rank)
    st.out;
  let template = Bytes.make (8 * (slots + Hashtbl.length st.consts)) '\000' in
  Hashtbl.iter (fun bits k -> set64 template (o (-1 - k)) bits) st.consts;
  let ret = o nl in
  fun args ->
    let fr = Bytes.copy template in
    List.iteri (fun i v -> if i < nl then write fr (8 * i) v else invalid_arg "Aot: arity") args;
    exec inst prog fr;
    match result with None -> [] | Some t -> [ read t fr ret ]

(* Compile every local function of an instance, or none when one is
   ill-typed. Returns the number compiled (the cost model uses it for
   Table III). *)
let compile_instance inst =
  let compiled =
    Array.to_list inst.funcs
    |> List.filter_map (function
         | Wasm w when w.w_owner == inst -> Some (w, compile_func inst w)
         | Wasm _ | Host _ -> None)
  in
  List.iter (fun (w, run) -> w.w_compiled <- Some run) compiled;
  List.length compiled

open Types
open Ast

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* --- LEB128 --- *)

let emit_u32 b v =
  let v = ref v in
  let continue_ = ref true in
  while !continue_ do
    let byte = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue_ := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let emit_s64 b v =
  let v = ref v in
  let continue_ = ref true in
  while !continue_ do
    let byte = Int64.to_int (Int64.logand !v 0x7fL) in
    v := Int64.shift_right !v 7;
    let done_ =
      (!v = 0L && byte land 0x40 = 0) || (!v = -1L && byte land 0x40 <> 0)
    in
    if done_ then begin
      Buffer.add_char b (Char.chr byte);
      continue_ := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let emit_s32 b (v : int32) = emit_s64 b (Int64.of_int32 v)

let emit_f32 b v =
  let bits = Int32.bits_of_float v in
  for i = 0 to 3 do
    Buffer.add_char b
      (Char.chr (Int32.to_int (Int32.shift_right_logical bits (8 * i)) land 0xff))
  done

let emit_f64 b v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

let emit_name b s =
  emit_u32 b (String.length s);
  Buffer.add_string b s

(* --- value types --- *)

let byte_of_valtype = function I32 -> 0x7f | I64 -> 0x7e | F32 -> 0x7d | F64 -> 0x7c

let valtype_of_byte = function
  | 0x7f -> I32
  | 0x7e -> I64
  | 0x7d -> F32
  | 0x7c -> F64
  | b -> fail "bad value type 0x%02x" b

(* --- opcodes, from [Ast]'s tables --- *)

let opcode_of_simple = List.map (fun (_, i, o) -> (i, o)) simple_instrs
let simple_of_opcode = List.map (fun (_, i, o) -> (o, i)) simple_instrs

let mem_opcode_of_instr i =
  match mem_access i with
  | None -> None
  | Some (m, _, _, _) ->
      let rec find k = function
        | (_, mk) :: rest -> if mk m = i then Some (0x28 + k, m) else find (k + 1) rest
        | [] -> None
      in
      find 0 mem_instrs

(* --- instruction encoding --- *)

let emit_blocktype b = function
  | None -> Buffer.add_char b '\x40'
  | Some vt -> Buffer.add_char b (Char.chr (byte_of_valtype vt))

let rec emit_instr b = function
  | Block (bt, body) ->
      Buffer.add_char b '\x02';
      emit_blocktype b bt;
      List.iter (emit_instr b) body;
      Buffer.add_char b '\x0b'
  | Loop (bt, body) ->
      Buffer.add_char b '\x03';
      emit_blocktype b bt;
      List.iter (emit_instr b) body;
      Buffer.add_char b '\x0b'
  | If (bt, t, e) ->
      Buffer.add_char b '\x04';
      emit_blocktype b bt;
      List.iter (emit_instr b) t;
      if e <> [] then begin
        Buffer.add_char b '\x05';
        List.iter (emit_instr b) e
      end;
      Buffer.add_char b '\x0b'
  | Br k ->
      Buffer.add_char b '\x0c';
      emit_u32 b k
  | Br_if k ->
      Buffer.add_char b '\x0d';
      emit_u32 b k
  | Br_table (ks, d) ->
      Buffer.add_char b '\x0e';
      emit_u32 b (List.length ks);
      List.iter (emit_u32 b) ks;
      emit_u32 b d
  | Call f ->
      Buffer.add_char b '\x10';
      emit_u32 b f
  | Call_indirect ti ->
      Buffer.add_char b '\x11';
      emit_u32 b ti;
      Buffer.add_char b '\x00'
  | Local_get n -> Buffer.add_char b '\x20'; emit_u32 b n
  | Local_set n -> Buffer.add_char b '\x21'; emit_u32 b n
  | Local_tee n -> Buffer.add_char b '\x22'; emit_u32 b n
  | Global_get n -> Buffer.add_char b '\x23'; emit_u32 b n
  | Global_set n -> Buffer.add_char b '\x24'; emit_u32 b n
  | I32_const v -> Buffer.add_char b '\x41'; emit_s32 b v
  | I64_const v -> Buffer.add_char b '\x42'; emit_s64 b v
  | F32_const v -> Buffer.add_char b '\x43'; emit_f32 b v
  | F64_const v -> Buffer.add_char b '\x44'; emit_f64 b v
  | i -> (
      match mem_opcode_of_instr i with
      | Some (op, m) ->
          Buffer.add_char b (Char.chr op);
          emit_u32 b m.align;
          emit_u32 b m.offset
      | None -> (
          match List.assoc_opt i opcode_of_simple with
          | Some op -> Buffer.add_char b (Char.chr op)
          | None -> invalid_arg "Binary.encode: unsupported instruction"))

let emit_expr b instrs =
  List.iter (emit_instr b) instrs;
  Buffer.add_char b '\x0b'

let emit_limits b (l : limits) =
  match l.max with
  | None ->
      Buffer.add_char b '\x00';
      emit_u32 b l.min
  | Some mx ->
      Buffer.add_char b '\x01';
      emit_u32 b l.min;
      emit_u32 b mx

let section b id content =
  if Buffer.length content > 0 then begin
    Buffer.add_char b (Char.chr id);
    emit_u32 b (Buffer.length content);
    Buffer.add_buffer b content
  end

let encode (m : module_) =
  let out = Buffer.create 1024 in
  Buffer.add_string out "\x00asm\x01\x00\x00\x00";
  (* type section *)
  let b = Buffer.create 64 in
  if Array.length m.types > 0 then begin
    emit_u32 b (Array.length m.types);
    Array.iter
      (fun ft ->
        Buffer.add_char b '\x60';
        emit_u32 b (List.length ft.params);
        List.iter (fun vt -> Buffer.add_char b (Char.chr (byte_of_valtype vt))) ft.params;
        emit_u32 b (List.length ft.results);
        List.iter (fun vt -> Buffer.add_char b (Char.chr (byte_of_valtype vt))) ft.results)
      m.types
  end;
  section out 1 b;
  (* import section *)
  let b = Buffer.create 64 in
  if m.imports <> [] then begin
    emit_u32 b (List.length m.imports);
    List.iter
      (fun im ->
        emit_name b im.imp_module;
        emit_name b im.imp_name;
        match im.imp_desc with
        | Import_func ti ->
            Buffer.add_char b '\x00';
            emit_u32 b ti
        | Import_table l ->
            Buffer.add_char b '\x01';
            Buffer.add_char b '\x70';
            emit_limits b l
        | Import_memory l ->
            Buffer.add_char b '\x02';
            emit_limits b l
        | Import_global gt ->
            Buffer.add_char b '\x03';
            Buffer.add_char b (Char.chr (byte_of_valtype gt.gt_val));
            Buffer.add_char b (if gt.gt_mut = Var then '\x01' else '\x00'))
      m.imports
  end;
  section out 2 b;
  (* function section *)
  let b = Buffer.create 64 in
  if Array.length m.funcs > 0 then begin
    emit_u32 b (Array.length m.funcs);
    Array.iter (fun f -> emit_u32 b f.ftype) m.funcs
  end;
  section out 3 b;
  (* table section *)
  let b = Buffer.create 16 in
  (match m.tables with
  | Some l ->
      emit_u32 b 1;
      Buffer.add_char b '\x70';
      emit_limits b l
  | None -> ());
  section out 4 b;
  (* memory section *)
  let b = Buffer.create 16 in
  (match m.memories with
  | Some l ->
      emit_u32 b 1;
      emit_limits b l
  | None -> ());
  section out 5 b;
  (* global section *)
  let b = Buffer.create 64 in
  if Array.length m.globals > 0 then begin
    emit_u32 b (Array.length m.globals);
    Array.iter
      (fun g ->
        Buffer.add_char b (Char.chr (byte_of_valtype g.g_type.gt_val));
        Buffer.add_char b (if g.g_type.gt_mut = Var then '\x01' else '\x00');
        emit_expr b g.g_init)
      m.globals
  end;
  section out 6 b;
  (* export section *)
  let b = Buffer.create 64 in
  if m.exports <> [] then begin
    emit_u32 b (List.length m.exports);
    List.iter
      (fun e ->
        emit_name b e.exp_name;
        match e.exp_desc with
        | Export_func i -> Buffer.add_char b '\x00'; emit_u32 b i
        | Export_table i -> Buffer.add_char b '\x01'; emit_u32 b i
        | Export_memory i -> Buffer.add_char b '\x02'; emit_u32 b i
        | Export_global i -> Buffer.add_char b '\x03'; emit_u32 b i)
      m.exports
  end;
  section out 7 b;
  (* start section *)
  let b = Buffer.create 8 in
  (match m.start with Some i -> emit_u32 b i | None -> ());
  section out 8 b;
  (* element section *)
  let b = Buffer.create 64 in
  if m.elems <> [] then begin
    emit_u32 b (List.length m.elems);
    List.iter
      (fun e ->
        emit_u32 b 0;
        emit_expr b e.e_offset;
        emit_u32 b (List.length e.e_init);
        List.iter (emit_u32 b) e.e_init)
      m.elems
  end;
  section out 9 b;
  (* code section *)
  let b = Buffer.create 256 in
  if Array.length m.funcs > 0 then begin
    emit_u32 b (Array.length m.funcs);
    Array.iter
      (fun f ->
        let body = Buffer.create 64 in
        (* compress locals into (count, type) runs *)
        let runs =
          List.fold_left
            (fun acc vt ->
              match acc with
              | (n, t) :: rest when t = vt -> (n + 1, t) :: rest
              | _ -> (1, vt) :: acc)
            [] f.locals
          |> List.rev
        in
        emit_u32 body (List.length runs);
        List.iter
          (fun (n, t) ->
            emit_u32 body n;
            Buffer.add_char body (Char.chr (byte_of_valtype t)))
          runs;
        emit_expr body f.body;
        emit_u32 b (Buffer.length body);
        Buffer.add_buffer b body)
      m.funcs
  end;
  section out 10 b;
  (* data section *)
  let b = Buffer.create 64 in
  if m.datas <> [] then begin
    emit_u32 b (List.length m.datas);
    List.iter
      (fun d ->
        emit_u32 b 0;
        emit_expr b d.d_offset;
        emit_u32 b (String.length d.d_init);
        Buffer.add_string b d.d_init)
      m.datas
  end;
  section out 11 b;
  (* name custom section (function-name subsection only) *)
  let b = Buffer.create 64 in
  if m.names <> [] then begin
    emit_name b "name";
    let sub = Buffer.create 64 in
    let names = List.sort compare m.names in
    emit_u32 sub (List.length names);
    List.iter
      (fun (idx, n) ->
        emit_u32 sub idx;
        emit_name sub n)
      names;
    Buffer.add_char b '\x01';
    emit_u32 b (Buffer.length sub);
    Buffer.add_buffer b sub
  end;
  section out 0 b;
  Buffer.contents out

(* --- decoding --- *)

type reader = { src : string; mutable pos : int }

let byte r =
  if r.pos >= String.length r.src then fail "unexpected end of input";
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_u32 r =
  let rec go shift acc =
    let b = byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let read_s64 r =
  let rec go shift acc =
    let b = byte r in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc
    else if shift + 7 < 64 && b land 0x40 <> 0 then
      Int64.logor acc (Int64.shift_left (-1L) (shift + 7))
    else acc
  in
  go 0 0L

let read_s32 r = Int64.to_int32 (read_s64 r)

let read_f32 r =
  let bits = ref 0l in
  for i = 0 to 3 do
    bits := Int32.logor !bits (Int32.shift_left (Int32.of_int (byte r)) (8 * i))
  done;
  Int32.float_of_bits !bits

let read_f64 r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let read_name r =
  let n = read_u32 r in
  if r.pos + n > String.length r.src then fail "name too long";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_limits r =
  match byte r with
  | 0 -> { min = read_u32 r; max = None }
  | 1 ->
      let mn = read_u32 r in
      let mx = read_u32 r in
      { min = mn; max = Some mx }
  | b -> fail "bad limits flag %d" b

let read_blocktype r =
  match byte r with
  | 0x40 -> None
  | b -> Some (valtype_of_byte b)

let read_memarg r =
  let align = read_u32 r in
  let offset = read_u32 r in
  { align; offset }

(* Returns (instrs, terminator) where terminator is `End or `Else. *)
let rec read_instrs r =
  let rec go acc =
    let op = byte r in
    match op with
    | 0x0b -> (List.rev acc, `End)
    | 0x05 -> (List.rev acc, `Else)
    | 0x02 ->
        let bt = read_blocktype r in
        let body, t = read_instrs r in
        if t <> `End then fail "block: expected end";
        go (Block (bt, body) :: acc)
    | 0x03 ->
        let bt = read_blocktype r in
        let body, t = read_instrs r in
        if t <> `End then fail "loop: expected end";
        go (Loop (bt, body) :: acc)
    | 0x04 ->
        let bt = read_blocktype r in
        let then_, t = read_instrs r in
        let else_ =
          match t with
          | `Else ->
              let e, t2 = read_instrs r in
              if t2 <> `End then fail "if: expected end";
              e
          | `End -> []
        in
        go (If (bt, then_, else_) :: acc)
    | 0x0c -> go (Br (read_u32 r) :: acc)
    | 0x0d -> go (Br_if (read_u32 r) :: acc)
    | 0x0e ->
        let n = read_u32 r in
        let targets = List.init n (fun _ -> read_u32 r) in
        let d = read_u32 r in
        go (Br_table (targets, d) :: acc)
    | 0x10 -> go (Call (read_u32 r) :: acc)
    | 0x11 ->
        let ti = read_u32 r in
        let tbl = byte r in
        if tbl <> 0 then fail "call_indirect: bad table index";
        go (Call_indirect ti :: acc)
    | 0x20 -> go (Local_get (read_u32 r) :: acc)
    | 0x21 -> go (Local_set (read_u32 r) :: acc)
    | 0x22 -> go (Local_tee (read_u32 r) :: acc)
    | 0x23 -> go (Global_get (read_u32 r) :: acc)
    | 0x24 -> go (Global_set (read_u32 r) :: acc)
    | 0x41 -> go (I32_const (read_s32 r) :: acc)
    | 0x42 -> go (I64_const (read_s64 r) :: acc)
    | 0x43 -> go (F32_const (read_f32 r) :: acc)
    | 0x44 -> go (F64_const (read_f64 r) :: acc)
    | op when op >= 0x28 && op <= 0x3e ->
        let mk = snd (List.nth mem_instrs (op - 0x28)) in
        go (mk (read_memarg r) :: acc)
    | op -> (
        match List.assoc_opt op simple_of_opcode with
        | Some i -> go (i :: acc)
        | None -> fail "unknown opcode 0x%02x" op)
  in
  go []

let read_expr r =
  let instrs, t = read_instrs r in
  if t <> `End then fail "expression: expected end";
  instrs

let decode src =
  if String.length src < 8 || String.sub src 0 8 <> "\x00asm\x01\x00\x00\x00" then
    fail "bad magic/version";
  let r = { src; pos = 8 } in
  let m = ref empty_module in
  let func_types = ref [||] in
  while r.pos < String.length src do
    let id = byte r in
    let size = read_u32 r in
    let section_end = r.pos + size in
    (* Section framing must fit the input even for custom sections: the
       name-section leniency below applies to its contents, not to a
       truncated module. *)
    if section_end > String.length src then fail "section %d overruns input" id;
    (match id with
    | 1 ->
        let n = read_u32 r in
        let types =
          Array.init n (fun _ ->
              if byte r <> 0x60 then fail "bad functype tag";
              let np = read_u32 r in
              let params = List.init np (fun _ -> valtype_of_byte (byte r)) in
              let nr = read_u32 r in
              let results = List.init nr (fun _ -> valtype_of_byte (byte r)) in
              { params; results })
        in
        m := { !m with types }
    | 2 ->
        let n = read_u32 r in
        let imports =
          List.init n (fun _ ->
              let imp_module = read_name r in
              let imp_name = read_name r in
              let imp_desc =
                match byte r with
                | 0 -> Import_func (read_u32 r)
                | 1 ->
                    if byte r <> 0x70 then fail "bad table elemtype";
                    Import_table (read_limits r)
                | 2 -> Import_memory (read_limits r)
                | 3 ->
                    let vt = valtype_of_byte (byte r) in
                    let mut = if byte r = 1 then Var else Const in
                    Import_global { gt_mut = mut; gt_val = vt }
                | b -> fail "bad import kind %d" b
              in
              { imp_module; imp_name; imp_desc })
        in
        m := { !m with imports }
    | 3 ->
        let n = read_u32 r in
        func_types := Array.init n (fun _ -> read_u32 r)
    | 4 ->
        let n = read_u32 r in
        if n > 1 then fail "multiple tables";
        if n = 1 then begin
          if byte r <> 0x70 then fail "bad table elemtype";
          m := { !m with tables = Some (read_limits r) }
        end
    | 5 ->
        let n = read_u32 r in
        if n > 1 then fail "multiple memories";
        if n = 1 then m := { !m with memories = Some (read_limits r) }
    | 6 ->
        let n = read_u32 r in
        let globals =
          Array.init n (fun _ ->
              let vt = valtype_of_byte (byte r) in
              let mut = if byte r = 1 then Var else Const in
              let init = read_expr r in
              { g_type = { gt_mut = mut; gt_val = vt }; g_init = init })
        in
        m := { !m with globals }
    | 7 ->
        let n = read_u32 r in
        let exports =
          List.init n (fun _ ->
              let exp_name = read_name r in
              let exp_desc =
                match byte r with
                | 0 -> Export_func (read_u32 r)
                | 1 -> Export_table (read_u32 r)
                | 2 -> Export_memory (read_u32 r)
                | 3 -> Export_global (read_u32 r)
                | b -> fail "bad export kind %d" b
              in
              { exp_name; exp_desc })
        in
        m := { !m with exports }
    | 8 -> m := { !m with start = Some (read_u32 r) }
    | 9 ->
        let n = read_u32 r in
        let elems =
          List.init n (fun _ ->
              let flag = read_u32 r in
              if flag <> 0 then fail "unsupported elem flags";
              let e_offset = read_expr r in
              let cnt = read_u32 r in
              { e_offset; e_init = List.init cnt (fun _ -> read_u32 r) })
        in
        m := { !m with elems }
    | 10 ->
        let n = read_u32 r in
        if n <> Array.length !func_types then fail "code/function count mismatch";
        let funcs =
          Array.init n (fun i ->
              let _size = read_u32 r in
              let nruns = read_u32 r in
              let locals =
                List.concat
                  (List.init nruns (fun _ ->
                       let cnt = read_u32 r in
                       let vt = valtype_of_byte (byte r) in
                       List.init cnt (fun _ -> vt)))
              in
              let body = read_expr r in
              { ftype = !func_types.(i); locals; body })
        in
        m := { !m with funcs }
    | 11 ->
        let n = read_u32 r in
        let datas =
          List.init n (fun _ ->
              let flag = read_u32 r in
              if flag <> 0 then fail "unsupported data flags";
              let d_offset = read_expr r in
              let len = read_u32 r in
              if r.pos + len > String.length src then fail "data overruns input";
              let d_init = String.sub src r.pos len in
              r.pos <- r.pos + len;
              { d_offset; d_init })
        in
        m := { !m with datas }
    | 0 ->
        (* Custom sections carry no semantics; only "name" (function
           namemap) is understood. Per the spec, a malformed name
           section must not fail the module, so decode errors inside it
           just abandon the section. *)
        (try
           if read_name r = "name" then
             while r.pos < section_end do
               let sub_id = byte r in
               let sub_size = read_u32 r in
               let sub_end = r.pos + sub_size in
               if sub_end > section_end then fail "name subsection overruns section";
               if sub_id = 1 then begin
                 let n = read_u32 r in
                 let names = ref (!m).names in
                 for _ = 1 to n do
                   let idx = read_u32 r in
                   let nm = read_name r in
                   if r.pos > sub_end then fail "name entry overruns subsection";
                   names := (idx, nm) :: List.remove_assoc idx !names
                 done;
                 m := { !m with names = List.sort compare !names }
               end;
               r.pos <- sub_end
             done
         with Decode_error _ -> ());
        r.pos <- section_end
    | id -> fail "unknown section id %d" id);
    if r.pos <> section_end then fail "section %d: size mismatch" id
  done;
  !m

let func_name = Ast.func_name
